"""Every CFG fact a procedure shares equals a fresh computation.

A procedure keeps what its CFG determines (``Procedure.cfg_facts``)
until a write to its block list, entry or a terminator drops it.
These tests wrap every reader of that record and, at every read made
while real programs build, run the same reader on a fresh view of the
procedure: a new ``Procedure`` over the same blocks and entry, whose
record is empty.  The two values must be equal.  A write that does not
drop the record shows as a stale value, and a caller that changes a
shared value shows at the next read.  A built program keeps no record.
"""

from __future__ import annotations

import sys
from collections import Counter

import pytest

from repro.analysis import freq, loops
from repro.core.config import HLOConfig
from repro.frontend import compile_program
from repro.ir.procedure import Procedure
from repro.ir.printer import print_program
from repro.linker.toolchain import Toolchain
from repro.machine.layout import CodeLayout
from repro.resilience import FaultInjector
from repro.workloads.generator import generate_sources
from repro.workloads.suite import all_workloads, get_workload


def _same(value):
    return value


def _loop_key(found):
    return [(loop.header, loop.body) for loop in found]


# reader name -> (owner, its CFGFacts field, comparison key)
READERS = {
    "predecessors": (Procedure, "preds", _same),
    "rpo_labels": (Procedure, "rpo", _same),
    "reachable_labels": (Procedure, "reachable", _same),
    "find_loops": (loops, "loops", _loop_key),
    "static_block_freqs": (freq, "static_freqs", _same),
}


def _view(proc: Procedure) -> Procedure:
    """``proc``'s CFG under a new procedure, with no facts computed."""
    view = Procedure(proc.name, [])
    view.blocks = proc.blocks
    view.entry = proc.entry
    return view


class Oracle:
    """Counts reads, and reads the record served, per reader."""

    def __init__(self):
        self.reads = Counter()
        self.shared = Counter()
        self.violations = []
        self._fresh = False

    def wrap(self, name, field, key, original):
        def reader(proc):
            if self._fresh:  # a nested read of the fresh computation
                return original(proc)
            facts = proc._cfg_facts
            if facts is not None and getattr(facts, field) is not None:
                self.shared[name] += 1
            value = original(proc)
            self._fresh = True
            try:
                expected = original(_view(proc))
            finally:
                self._fresh = False
            self.reads[name] += 1
            if key(value) != key(expected):
                self.violations.append("{} @{} (read {})".format(
                    name, proc.name, self.reads[name]))
            return value

        return reader

    def install(self, monkeypatch):
        """Wrap each reader wherever a module holds it, and on Procedure."""
        for name, (owner, field, key) in READERS.items():
            original = getattr(owner, name)
            wrapped = self.wrap(name, field, key, original)
            if owner is Procedure:
                monkeypatch.setattr(Procedure, name, wrapped)
                continue
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith(("repro.", "tests.")):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, wrapped)


def _check(monkeypatch, builds):
    """Run ``builds`` (toolchain, scope, config) under the oracle."""
    oracle = Oracle()
    oracle.install(monkeypatch)
    programs = []
    for toolchain, scope, config in builds:
        program = toolchain.build(scope, config).program
        kept = [p.name for p in program.all_procs() if p._cfg_facts is not None]
        assert kept == [], "records outlived HLO"
        programs.append(program)
    assert oracle.violations[:5] == []
    assert set(oracle.reads) == set(READERS)
    return oracle, programs


def _faulty(sources, train, **fault):
    return Toolchain(sources, train_inputs=train,
                     fault_injector=FaultInjector(seed=7, **fault))


@pytest.mark.parametrize("name", [w.name for w in all_workloads()])
def test_suite_builds_read_exact_facts(name, monkeypatch):
    workload = get_workload(name)
    sources = list(workload.sources)
    train = [list(t) for t in workload.train_inputs]
    toolchain = Toolchain(sources, train_inputs=train)
    # At ``c`` no profile reaches HLO, so it reads static frequencies.
    # Without per-pass verification, a crashing dce rolls guarded calls
    # back, and a corrupting one runs later passes on its bad jump until
    # the exit verify rebuilds the program.
    oracle, _ = _check(monkeypatch, [
        (toolchain, scope, HLOConfig(strategy=strategy))
        for scope in ("c", "cp") for strategy in ("global", "demand")
    ] + [
        (toolchain, "cp", HLOConfig(enable_outlining=True)),
        (_faulty(sources, train, crash_pass="dce"), "cp", HLOConfig()),
        (_faulty(sources, train, corrupt_pass="dce"), "cp", HLOConfig()),
    ])
    assert all(oracle.shared[name] > 0 for name in READERS), oracle.shared


@pytest.mark.parametrize("seed", range(4))
def test_generated_programs_read_exact_facts(seed, monkeypatch):
    toolchain = Toolchain(generate_sources(seed), train_inputs=[[3], [7]])
    _check(monkeypatch, [
        (toolchain, scope, HLOConfig(strategy=strategy))
        for scope in ("c", "cp") for strategy in ("global", "demand")
    ])


# The join of the ``if`` is an empty block, which simplify-CFG threads,
# so the loop is entered from both arms and LICM adds a preheader to
# hoist ``k * 3``.
PREHEADER = [("m", """
int f(int n, int k) {
  int s = 0;
  int i = 0;
  if (k > 0) { s = 1; } else { s = 2; }
  while (i < n) { s = s + k * 3; i = i + 1; }
  return s;
}
int main() { print_int(f(input(0), input(1))); return 0; }
""")]


def test_a_new_preheader_drops_the_facts(monkeypatch):
    toolchain = Toolchain(PREHEADER, train_inputs=[[5, 2]])
    _, programs = _check(monkeypatch, [
        (toolchain, scope, HLOConfig()) for scope in ("c", "cp")
    ])
    for program in programs:
        assert any(label.startswith("preheader") for label in program.proc("f").blocks)


def test_printing_and_layout_leave_the_shared_order_alone(monkeypatch):
    # Both returns leave the join unreachable, so each reader appends it
    # to the reverse postorder in a list of its own.
    program = compile_program([("m", """
int f(int x) { if (x > 0) { return 1; } else { return 2; } return 3; }
int main() { print_int(f(input(0))); return 0; }
""")])
    oracle = Oracle()
    oracle.install(monkeypatch)
    for _ in range(2):
        print_program(program)
        CodeLayout(program)
    assert oracle.reads["rpo_labels"] == 8
    assert oracle.violations == []
