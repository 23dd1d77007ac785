"""Constant propagation rewrites every procedure as its old kernels did.

``reference_constprop`` keeps the pass as it was before its in-place
transfer step and change-driven dataflow.  These tests wrap the pass
that ``default_pipeline`` looks up at call time and, at every call made
while real programs build, run the reference on a copy of the procedure
first: the printed procedure and the return value must be equal.
"""

from __future__ import annotations

import pytest

from repro.core.config import HLOConfig
from repro.linker.toolchain import Toolchain
from repro.opt import constprop
from repro.resilience import ProcedureSnapshot
from repro.workloads.generator import generate_sources
from repro.workloads.suite import get_workload

from . import reference_constprop

REAL_CONSTANT_PROPAGATION = constprop.constant_propagation
STRATEGIES = ("global", "demand")


class Oracle:
    """``constant_propagation`` checked against the reference per call."""

    def __init__(self):
        self.calls = 0
        self.rewrites = 0
        self.violations = []

    def __call__(self, program, proc):
        copy = ProcedureSnapshot(proc).materialize(proc.module)
        expected = reference_constprop.constant_propagation(program, copy)
        changed = REAL_CONSTANT_PROPAGATION(program, proc)
        self.calls += 1
        self.rewrites += changed
        if changed != expected or str(proc) != str(copy):
            self.violations.append("@{} (call {})".format(proc.name, self.calls))
        return changed


def _check(monkeypatch, sources, train_inputs, builds):
    oracle = Oracle()
    monkeypatch.setattr(constprop, "constant_propagation", oracle)
    toolchain = Toolchain(sources, train_inputs=train_inputs)
    for scope, strategy in builds:
        toolchain.build(scope, HLOConfig(strategy=strategy))
    assert oracle.violations == []
    assert oracle.rewrites > 0


@pytest.mark.parametrize("name", ["compress", "sc", "vortex", "li"])
def test_suite_builds_match_the_reference(name, monkeypatch):
    workload = get_workload(name)
    _check(
        monkeypatch,
        list(workload.sources),
        [list(t) for t in workload.train_inputs],
        [(scope, strategy) for scope in ("c", "cp") for strategy in STRATEGIES],
    )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_programs_match_the_reference(seed, monkeypatch):
    _check(
        monkeypatch,
        generate_sources(seed),
        [[3], [7]],
        [("cp", strategy) for strategy in STRATEGIES],
    )
