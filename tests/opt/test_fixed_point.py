"""The fixed-point mark: a skipped re-optimization would change nothing.

``optimize_proc`` marks a procedure ``at_fixed_point`` when the default
pipeline converged on it, and later default-pipeline calls on a marked
procedure return at once.  The mark is only sound if every edit made
outside the scalar passes clears it.  These tests wrap ``optimize_proc``
at every name HLO calls it through and check each skip against an
oracle: the body must be the one the mark was set on, and the default
pipeline run on a copy of it must change nothing.  A reference build
that clears the mark before every call (so nothing is ever skipped)
must produce the same program and report.
"""

from __future__ import annotations

import pytest

from repro.core import cloner, inliner, regions
from repro.core.config import HLOConfig
from repro.frontend import compile_program
from repro.linker.isom import to_isom_text
from repro.linker.toolchain import Toolchain
from repro.opt import pass_manager
from repro.resilience import PassGuard, ProcedureSnapshot
from repro.workloads.suite import get_workload

REAL_OPTIMIZE_PROC = pass_manager.optimize_proc

# Every module attribute the optimizer is called through.
CALL_SITES = (pass_manager, inliner, cloner, regions)

WALK = [
    (
        "m",
        """
        int walk(int n, int mode) {
          if (n <= 0) return 0;
          if (mode) print_int(n);
          return n + walk(n - 1, mode);
        }
        int main() { return walk(input(0), 0) % 31; }
        """,
    )
]


def _body(proc):
    """What the seven passes read: params, entry, printed instructions."""
    return (
        tuple(proc.params),
        proc.entry,
        tuple(
            (label, tuple(str(instr) for instr in block.instrs))
            for label, block in proc.blocks.items()
        ),
    )


class MarkOracle:
    """``optimize_proc`` that checks every call the mark lets it skip."""

    def __init__(self):
        self.marked_bodies = {}
        self.skipped = 0
        self.violations = []

    def __call__(self, program, proc, pipeline=None, *args, **kwargs):
        if pipeline is None and proc.at_fixed_point:
            self.skipped += 1
            self._check_skip(program, proc)
        changed = REAL_OPTIMIZE_PROC(program, proc, pipeline, *args, **kwargs)
        if proc.at_fixed_point:
            self.marked_bodies[proc] = _body(proc)
        return changed

    def _check_skip(self, program, proc):
        body = _body(proc)
        if self.marked_bodies.get(proc) != body:
            self.violations.append("@{}: edited since marked".format(proc.name))
            return
        copy = ProcedureSnapshot(proc).materialize(proc.module)
        copy.at_fixed_point = False
        if REAL_OPTIMIZE_PROC(program, copy) or _body(copy) != body:
            self.violations.append("@{}: pipeline still changes it".format(proc.name))


def _never_skip(program, proc, *args, **kwargs):
    proc.at_fixed_point = False
    return REAL_OPTIMIZE_PROC(program, proc, *args, **kwargs)


def _patch(monkeypatch, optimize_proc):
    for module in CALL_SITES:
        monkeypatch.setattr(module, "optimize_proc", optimize_proc)


def _build(sources, train_inputs, config, monkeypatch, optimize_proc):
    _patch(monkeypatch, optimize_proc)
    toolchain = Toolchain(sources, train_inputs=train_inputs, config=config)
    result = toolchain.build("cp")
    isoms = {
        name: to_isom_text(module)
        for name, module in result.program.modules.items()
    }
    return isoms, result.report


def _sources_and_training(name):
    if name == "walk":
        return WALK, [[5]]
    workload = get_workload(name)
    return list(workload.sources), [list(t) for t in workload.train_inputs]


CASES = [
    pytest.param(name, HLOConfig(strategy=strategy), id="{}-{}".format(name, strategy))
    for name in ("compress", "sc", "vortex")
    for strategy in ("global", "demand")
] + [
    pytest.param(name, HLOConfig(enable_outlining=True), id=name + "-outline")
    for name in ("go", "perl")
] + [
    pytest.param("li", HLOConfig(reoptimize=False), id="li-no-reoptimize"),
    pytest.param("walk", HLOConfig(), id="walk-recursive-clone"),
]


@pytest.mark.parametrize("name,config", CASES)
def test_skipped_calls_are_at_fixed_point_and_change_no_output(
    name, config, monkeypatch
):
    sources, train_inputs = _sources_and_training(name)
    oracle = MarkOracle()
    marked_isoms, marked = _build(sources, train_inputs, config, monkeypatch, oracle)
    ref_isoms, ref = _build(sources, train_inputs, config, monkeypatch, _never_skip)

    assert oracle.violations == []
    assert oracle.skipped > 0
    assert marked_isoms == ref_isoms
    assert str(marked) == str(ref)
    assert marked.pass_traces == ref.pass_traces
    assert marked.events == ref.events
    assert (
        marked.analysis_hits, marked.analysis_misses, marked.analysis_invalidations
    ) == (ref.analysis_hits, ref.analysis_misses, ref.analysis_invalidations)


def test_non_default_pipeline_leaves_the_mark_unset():
    program = compile_program(WALK)
    proc = program.proc("walk")
    pipeline = pass_manager.default_pipeline()

    pass_manager.optimize_proc(program, proc, pipeline=pipeline)
    assert not proc.at_fixed_point

    assert not pass_manager.optimize_proc(program, proc)
    assert proc.at_fixed_point
    # A marked procedure still runs a non-default pipeline, and the run
    # unsets the mark: it speaks only for the default one.
    pass_manager.optimize_proc(program, proc, pipeline=pipeline)
    assert not proc.at_fixed_point


def test_a_guarded_failure_or_a_quarantine_leaves_the_mark_unset(monkeypatch):
    program = compile_program(WALK)
    proc = program.proc("walk")
    guard = PassGuard()
    guard.quarantined.add("cse")
    pass_manager.optimize_proc(program, proc, guard=guard)
    assert not proc.at_fixed_point

    def crash(program, proc):
        raise RuntimeError("injected")

    monkeypatch.setattr(pass_manager, "default_pipeline", lambda: [("crash", crash)])
    guard = PassGuard()
    assert not pass_manager.optimize_proc(program, proc, guard=guard)
    assert guard.failures and not guard.quarantined
    assert not proc.at_fixed_point
