"""The guarded pass runner: rollback, quarantine, bisection, strict."""

import pytest

from repro.core.config import HLOConfig
from repro.core.hlo import run_hlo
from repro.frontend import compile_program
from repro.interp import run_program
from repro.ir import print_program
from repro.opt.pass_manager import default_pipeline
from repro.resilience import (
    PROGRAM_SCOPE,
    FaultInjector,
    InjectedFault,
    PassGuard,
    bisect_failure,
)
from repro.resilience.guard import MAX_FAILURES

LIB = """
static int twice(int x) { return x + x; }
int api(int x) { return twice(x) + 3; }
"""
MAIN = """
extern int api(int x);
int main() { print_int(api(input(0))); return 0; }
"""


def program():
    return compile_program([("lib", LIB), ("main", MAIN)])


def crashing(program, proc):
    raise InjectedFault("boom")


class TestRunProcPass:
    """One pass application through a guarded call's checkpoint."""

    def test_failure_rolls_back_and_records(self):
        prog = program()
        proc = prog.proc("api")
        before = print_program(prog)
        guard = PassGuard()

        def breaks_then_raises(program, proc):
            proc.blocks[proc.entry].instrs.pop()
            raise InjectedFault("boom")

        changed = guard.checkpoint(prog, proc, pass_number=1, phase="scalar").run(
            "badpass", breaks_then_raises
        )
        assert changed is False
        assert print_program(prog) == before
        (failure,) = guard.failures
        assert failure.pass_name == "badpass"
        assert failure.proc == "api"
        assert failure.pass_number == 1
        assert failure.error_type == "InjectedFault"
        assert "boom" in failure.error

    def test_quarantine_stops_reinvoking(self):
        prog = program()
        proc = prog.proc("api")
        guard = PassGuard()
        calls = []

        def counted_crash(program, proc):
            calls.append(proc.name)
            raise InjectedFault("boom")

        for _ in range(5):
            guard.checkpoint(prog, proc).run("badpass", counted_crash)
        assert len(calls) == MAX_FAILURES  # later invocations skipped
        assert "badpass" in guard.quarantined
        assert guard.failures[-1].quarantined

    def test_strict_reraises(self):
        prog = program()
        guard = PassGuard(strict=True)
        with pytest.raises(InjectedFault):
            guard.checkpoint(prog, prog.proc("api")).run("badpass", crashing)

    def test_verify_each_pass_catches_corruption(self):
        prog = program()
        proc = prog.proc("api")
        before = print_program(prog)
        injector = FaultInjector(seed=3)
        guard = PassGuard(verify_each_pass=True)
        changed = guard.checkpoint(prog, proc).run(
            "corrupt", injector.corrupting_pass("corrupt")
        )
        assert changed is False
        assert print_program(prog) == before
        assert guard.failures[0].error_type == "VerifyError"

    def test_corruption_unnoticed_without_verify(self):
        # Control for the test above: the same corrupting pass slips
        # through when per-pass verification is off.
        prog = program()
        proc = prog.proc("api")
        injector = FaultInjector(seed=3)
        guard = PassGuard(verify_each_pass=False)
        guard.checkpoint(prog, proc).run("corrupt", injector.corrupting_pass("corrupt"))
        assert not guard.failures


class TestRunProgramStage:
    def test_failure_restores_program_and_returns_default(self):
        prog = program()
        before = print_program(prog)
        guard = PassGuard()

        def stage():
            prog.delete_proc("twice$lib")
            raise InjectedFault("stage died")

        result = guard.run_program_stage(prog, "clone", stage, default=0)
        assert result == 0
        assert print_program(prog) == before
        (failure,) = guard.failures
        assert failure.proc == PROGRAM_SCOPE

    def test_bisection_names_culprit(self):
        prog = program()
        injector = FaultInjector(seed=0, crash_pass="cse")
        pipeline = injector.wrap_pipeline(default_pipeline())
        guard = PassGuard()

        def stage():
            raise InjectedFault("stage died")

        guard.run_program_stage(
            prog, "inline", stage, default=0, bisect_pipeline=pipeline
        )
        (failure,) = guard.failures
        assert failure.culprit.startswith("cse on @")


class TestBisectFailure:
    def test_finds_minimal_pair_and_leaves_program_intact(self):
        prog = program()
        before = print_program(prog)
        injector = FaultInjector(seed=0, crash_pass="peephole")
        pipeline = injector.wrap_pipeline(default_pipeline())
        pair = bisect_failure(prog, pipeline)
        assert pair is not None
        name, proc = pair
        assert name == "peephole"
        assert prog.proc(proc) is not None
        assert print_program(prog) == before

    def test_healthy_pipeline_yields_none(self):
        prog = program()
        before = print_program(prog)
        assert bisect_failure(prog, default_pipeline()) is None
        assert print_program(prog) == before


class TestGuardedHLO:
    def test_crashing_pass_build_completes_with_same_behavior(self):
        # The acceptance-criteria scenario: a deliberately crashing
        # scalar pass must not change what the program computes.
        baseline_prog = program()
        baseline = run_program(baseline_prog, [9]).behavior()

        prog = program()
        injector = FaultInjector(seed=1, crash_pass="constprop")
        pipeline = injector.wrap_pipeline(default_pipeline())
        report = run_hlo(prog, HLOConfig(), pipeline=pipeline)

        assert run_program(prog, [9]).behavior() == baseline
        assert report.pass_failures
        assert all(f.pass_name == "constprop" for f in report.pass_failures)
        assert report.degraded
        assert "constprop" in report.quarantined_passes

    def test_strict_hlo_raises_on_first_failure(self):
        prog = program()
        injector = FaultInjector(seed=1, crash_pass="constprop")
        pipeline = injector.wrap_pipeline(default_pipeline())
        with pytest.raises(InjectedFault):
            run_hlo(prog, HLOConfig(strict=True), pipeline=pipeline)

    def test_corrupting_pass_with_verify_rolls_back(self):
        baseline_prog = program()
        baseline = run_program(baseline_prog, [4]).behavior()

        prog = program()
        injector = FaultInjector(seed=2, corrupt_pass="dce")
        pipeline = injector.wrap_pipeline(default_pipeline())
        report = run_hlo(
            prog, HLOConfig(verify_each_pass=True), pipeline=pipeline
        )
        assert run_program(prog, [4]).behavior() == baseline
        assert report.pass_failures
        assert report.pass_failures[0].error_type == "VerifyError"
