"""The per-call checkpoint rolls back exactly as a copy per pass did.

A guarded ``optimize_proc`` call copies its procedure once; when a pass
application fails it restores that copy and replays the applications
that succeeded before it.  The reference (``reference_guard``) copies
before every application and restores only the failed one.  These
tests run the same fault-injected builds under both and require the
same program, name counters and fixed-point marks, failures,
quarantines and injector log.
"""

from __future__ import annotations

import pickle
from functools import lru_cache

import pytest

from repro.core import cloner, inliner, regions
from repro.core.config import HLOConfig
from repro.core.hlo import run_hlo
from repro.frontend import compile_program
from repro.ir import print_program
from repro.ir.verifier import verify_proc
from repro.opt import pass_manager
from repro.profile import annotate_program, train
from repro.resilience import FaultInjector, InjectedFault, PassGuard, guard
from repro.workloads.generator import generate_sources
from repro.workloads.suite import get_workload

from . import reference_guard

# Every module attribute the optimizer is called through.
CALL_SITES = (pass_manager, inliner, cloner, regions)

PASSES = [name for name, _ in pass_manager.default_pipeline()]


@lru_cache(maxsize=None)
def _prepared(name):
    """The workload compiled and annotated with its trained profile,
    pickled so that each build starts from its own copy, and the
    profile's site counts."""
    if name == "generated":
        sources = generate_sources(2)
        inputs = [[3], [7]]
    else:
        workload = get_workload(name)
        sources = list(workload.sources)
        inputs = [list(t) for t in workload.train_inputs]
    profile = train(sources, inputs)
    program = compile_program(sources)
    annotate_program(program, profile)
    return pickle.dumps(program), profile.site_counts


def _build(monkeypatch, optimize_proc, name, strategy, fault):
    for module in CALL_SITES:
        monkeypatch.setattr(module, "optimize_proc", optimize_proc)
    blob, site_counts = _prepared(name)
    program = pickle.loads(blob)
    injector = FaultInjector(seed=11, **fault)
    report = run_hlo(
        program,
        HLOConfig(strategy=strategy, verify_each_pass=True),
        site_counts=site_counts,
        pipeline=injector.wrap_pipeline(pass_manager.default_pipeline()),
    )
    procs = [
        (proc.name, proc._reg_counter, proc._label_counter, proc.at_fixed_point)
        for proc in program.all_procs()
    ]
    failures = [
        (f.pass_name, f.proc, f.phase, f.error_type, f.error, f.quarantined)
        for f in report.pass_failures
    ]
    return (
        print_program(program), procs, failures, report.quarantined_passes,
        injector.injected,
    )


# Each build crashes one pass and corrupts another, so that on each
# program every pass crashes once and corrupts once, and two failures
# can meet in one optimizer call, whose replay must then skip the
# failed application.  A faulty pass fails at every application, so the
# guard quarantines it after two failures, all in the input stage's
# optimization, before the strategy runs.  Each build therefore runs
# under one strategy, the two alternating.
STRATEGIES = ("global", "demand")


def _case(i, name, p):
    strategy = STRATEGIES[(i + p) % 2]
    crash, corrupt = PASSES[p], PASSES[(p + 3) % len(PASSES)]
    return pytest.param(
        name, strategy, {"crash_pass": crash, "corrupt_pass": corrupt},
        id="{}-{}-crash-{}-corrupt-{}".format(name, strategy, crash, corrupt),
    )


CASES = [
    _case(i, name, p)
    for i, name in enumerate(("compress", "sc", "generated"))
    for p in range(len(PASSES))
]


@pytest.mark.parametrize("name,strategy,fault", CASES)
def test_fault_injected_build_matches_per_pass_copies(name, strategy, fault, monkeypatch):
    checkpointed = _build(
        monkeypatch, pass_manager.optimize_proc, name, strategy, fault
    )
    reference = _build(monkeypatch, reference_guard.optimize_proc, name, strategy, fault)
    fired = {entry.split(":")[0] for entry in checkpointed[4]}
    assert fired == {"crash", "corrupt"}, "a fault never fired: the case is vacuous"
    assert checkpointed == reference


LOOP = [(
    "m",
    """
    int sum(int n, int k) {
      int t = 0;
      int i = 0;
      if (k > 0)
        while (i < n) { t = t + k * 7; i = i + 1; }
      return t;
    }
    int main() { print_int(sum(input(0), 3)); return 0; }
    """,
)]


def _crash_after_licm(optimize_proc):
    """Optimize @sum with dce crashing after licm made a preheader."""
    program = compile_program(LOOP)
    proc = program.proc("sum")
    labels_before = set(proc.blocks)
    injector = FaultInjector(crash_pass="dce")
    optimize_proc(
        program, proc, pipeline=injector.wrap_pipeline(pass_manager.default_pipeline()),
        guard=PassGuard(),
    )
    made = [label for label in proc.blocks if label not in labels_before]
    return print_program(program), made, proc.new_label("preheader")


def test_replayed_licm_gets_back_its_preheader_label():
    printed, made, next_label = _crash_after_licm(pass_manager.optimize_proc)
    ref_printed, ref_made, ref_next = _crash_after_licm(reference_guard.optimize_proc)
    assert any(label.startswith("preheader") for label in made), made
    assert (printed, made, next_label) == (ref_printed, ref_made, ref_next)


def _dce_failing_late(optimize_proc):
    """Optimize @sum with dce raising on its second application, after
    the first iteration did all the work: only a replay keeps it."""
    program = compile_program(LOOP)
    proc = program.proc("sum")
    before = print_program(program)
    pipeline = pass_manager.default_pipeline()
    dce = pipeline[-1][1]
    applications = []

    def flaky_dce(program, proc):
        applications.append(proc.name)
        if len(applications) == 2:
            raise InjectedFault("dce failed on its second application")
        return dce(program, proc)

    pipeline[-1] = ("dce", flaky_dce)
    guard = PassGuard()
    optimize_proc(program, proc, pipeline=pipeline, guard=guard)
    return before, print_program(program), len(guard.failures)


def test_a_late_failure_keeps_the_applications_before_it():
    before, printed, failures = _dce_failing_late(pass_manager.optimize_proc)
    assert failures == 1 and printed != before
    assert printed == _dce_failing_late(reference_guard.optimize_proc)[1]


def test_a_replay_that_raises_stays_inside_the_guard():
    """constprop succeeds once, then raises when dce's failure replays
    it: the call still returns, with a procedure that verifies."""
    program = compile_program(LOOP)
    proc = program.proc("sum")
    pipeline = pass_manager.default_pipeline()
    constprop = pipeline[0][1]
    applications = []

    def flaky_constprop(program, proc):
        applications.append(proc.name)
        if len(applications) == 2:
            raise InjectedFault("constprop failed on its second application")
        return constprop(program, proc)

    pipeline[0] = ("constprop", flaky_constprop)
    pipeline[-1] = ("dce", FaultInjector().failing_pass("dce"))
    guard = PassGuard()
    pass_manager.optimize_proc(program, proc, pipeline=pipeline, guard=guard)
    verify_proc(program, proc)
    assert len(applications) >= 2, "the replay never ran constprop again"
    assert {f.pass_name for f in guard.failures} == {"dce"}


def test_a_guarded_call_copies_its_procedure_once(monkeypatch):
    copies = []
    real = guard.ProcedureSnapshot

    class Counted(real):
        def __init__(self, proc):
            copies.append(proc.name)
            super().__init__(proc)

    monkeypatch.setattr(guard, "ProcedureSnapshot", Counted)
    program = compile_program(LOOP)
    proc = program.proc("sum")
    rounds = []

    def counted_constprop(program, proc):
        rounds.append(proc.name)
        return real_constprop(program, proc)

    pipeline = pass_manager.default_pipeline()
    real_constprop = pipeline[0][1]
    pipeline[0] = ("constprop", counted_constprop)
    pass_manager.optimize_proc(program, proc, pipeline=pipeline, guard=PassGuard())
    assert len(rounds) >= 2, "the call converged in one iteration"
    assert copies == ["sum"]
