"""The scalar kernels and the input stage skip only work that changes nothing.

``reference_kernels`` keeps liveness, local CSE, the LICM entry and
dead-call elimination as they were before they skipped work.  The
oracle wraps each production kernel at the name the pipeline calls it
through and, at every call made while real programs build, runs the
reference on a copy first: liveness must give equal ``live_out`` maps,
CSE and LICM equal return values and printed procedures, dead calls
equal removable sets and printed programs.

The input stage sweeps unreachable routines before its clean-up; the
last tests check that no routine that sweep deletes is optimized, and
that builds without it give the same isoms, report and deleted set.
"""

from __future__ import annotations

import importlib
from collections import Counter

import pytest

from repro.analysis.callgraph import CallGraph
from repro.analysis.sideeffects import side_effect_free_procs
from repro.core import hlo
from repro.core.config import HLOConfig
from repro.ir.program import Program
from repro.linker.isom import to_isom_text
from repro.linker import toolchain as toolchain_module
from repro.linker.toolchain import Toolchain
from repro.opt import pass_manager
from repro.resilience import ProcedureSnapshot, ProgramSnapshot
from repro.workloads.generator import generate_sources
from repro.workloads.suite import get_workload

from . import reference_kernels

# The modules, not the package's re-exported functions of the same name.
cse = importlib.import_module("repro.opt.cse")
dce = importlib.import_module("repro.opt.dce")
deadcalls = importlib.import_module("repro.opt.deadcalls")
licm = importlib.import_module("repro.opt.licm")

REAL_LIVENESS = dce.liveness
REAL_CSE = cse.local_cse
REAL_LICM = licm.licm
REAL_DEAD_CALLS = deadcalls.eliminate_dead_calls
STRATEGIES = ("global", "demand")
KERNELS = ("liveness", "cse", "licm", "deadcalls")


def _copy_program(program: Program) -> Program:
    copy = Program()
    ProgramSnapshot(program).restore(copy)
    return copy


class Oracle:
    """Every wrapped kernel checked against the reference per call."""

    def __init__(self):
        self.calls = Counter()
        self.changes = Counter()
        self.violations = []

    def _check(self, kernel, ok, changed, where):
        self.calls[kernel] += 1
        self.changes[kernel] += bool(changed)
        if not ok:
            self.violations.append("{} on {} (call {})".format(
                kernel, where, self.calls[kernel]))

    def liveness(self, proc):
        expected = reference_kernels.liveness(proc)
        live_out = REAL_LIVENESS(proc)
        self._check("liveness", live_out == expected,
                    any(live_out.values()), "@" + proc.name)
        return live_out

    def _proc_pass(self, kernel, real, reference, program, proc):
        copy = ProcedureSnapshot(proc).materialize(proc.module)
        expected = reference(program, copy)
        changed = real(program, proc)
        self._check(kernel, changed == expected and str(proc) == str(copy),
                    changed, "@" + proc.name)
        return changed

    def cse(self, program, proc):
        return self._proc_pass("cse", REAL_CSE, reference_kernels.local_cse,
                               program, proc)

    def licm(self, program, proc):
        return self._proc_pass("licm", REAL_LICM, reference_kernels.licm,
                               program, proc)

    def dead_calls(self, program):
        copy = _copy_program(program)
        free = side_effect_free_procs(program, CallGraph(program))
        expected_free = reference_kernels.side_effect_free_procs(copy, CallGraph(copy))
        expected = reference_kernels.eliminate_dead_calls(copy)
        changed = REAL_DEAD_CALLS(program)
        ok = (free == expected_free and changed == expected
              and str(program) == str(copy))
        self._check("deadcalls", ok, changed, "the program")
        return changed


def _check(monkeypatch, sources, train_inputs, builds):
    oracle = Oracle()
    monkeypatch.setattr(dce, "liveness", oracle.liveness)
    monkeypatch.setattr(deadcalls, "liveness", oracle.liveness)
    monkeypatch.setattr(cse, "local_cse", oracle.cse)
    monkeypatch.setattr(licm, "licm", oracle.licm)
    monkeypatch.setattr(deadcalls, "eliminate_dead_calls", oracle.dead_calls)
    toolchain = Toolchain(sources, train_inputs=train_inputs)
    for scope, strategy in builds:
        toolchain.build(scope, HLOConfig(strategy=strategy))
    assert oracle.violations == []
    return oracle


# The kernels each build set changes something with, so no comparison
# is vacuous: sc's no-op curses calls are what dead calls remove.
SUITE_CHANGES = {
    "compress": ("liveness", "licm"),
    "sc": KERNELS,
    "vortex": ("liveness", "cse", "licm"),
    "li": ("liveness", "cse", "licm"),
}
GENERATED_CHANGES = {
    1: ("liveness", "licm"),
    2: ("liveness", "deadcalls"),
    3: ("liveness", "licm"),
}


@pytest.mark.parametrize("name", sorted(SUITE_CHANGES))
def test_suite_builds_match_the_reference(name, monkeypatch):
    workload = get_workload(name)
    oracle = _check(
        monkeypatch,
        list(workload.sources),
        [list(t) for t in workload.train_inputs],
        [(scope, strategy) for scope in ("c", "cp") for strategy in STRATEGIES],
    )
    assert all(oracle.changes[k] > 0 for k in SUITE_CHANGES[name]), oracle.changes


@pytest.mark.parametrize("seed", sorted(GENERATED_CHANGES))
def test_generated_programs_match_the_reference(seed, monkeypatch):
    oracle = _check(
        monkeypatch,
        generate_sources(seed),
        [[3], [7]],
        [("cp", strategy) for strategy in STRATEGIES],
    )
    assert all(oracle.changes[k] > 0 for k in GENERATED_CHANGES[seed]), oracle.changes


# -- the input stage's early sweep ------------------------------------

REAL_DELETE_UNREACHABLE = hlo._delete_unreachable


# ``dead`` is unreachable and alone takes ``target``'s address: until
# it is swept, that reference keeps ``target`` alive.
ADDRESS_IN_DEAD_CODE = [("m", """
static int target(int x) { return x * 7 + 1; }
static int apply(int f, int x) { return f(x); }
static int dead(int x) { return apply(&target, x); }
int main() { print_int(input(0) + 1); return 0; }
""")]


def _sources(name):
    if name == "address":
        return ADDRESS_IN_DEAD_CODE, [[3]]
    if name.startswith("gen"):
        return generate_sources(int(name[3:])), [[3], [7]]
    workload = get_workload(name)
    return list(workload.sources), [list(t) for t in workload.train_inputs]


def _outputs(build):
    program = build.program
    return (
        {name: to_isom_text(mod) for name, mod in program.modules.items()},
        str(build.report),
        sorted(build.report.deleted_procs),
    )


def _patch_sweeps(monkeypatch, early, late):
    """Route each HLO run's first unreachable sweep to ``early`` and its
    later ones to ``late``; both take the real sweep's arguments."""
    calls = [0]
    real_run_hlo = toolchain_module.run_hlo

    def run_hlo(*args, **kwargs):
        calls[0] = 0
        return real_run_hlo(*args, **kwargs)

    def delete_unreachable(*args, **kwargs):
        calls[0] += 1
        return (early if calls[0] == 1 else late)(*args, **kwargs)

    monkeypatch.setattr(toolchain_module, "run_hlo", run_hlo)
    monkeypatch.setattr(hlo, "_delete_unreachable", delete_unreachable)


@pytest.mark.parametrize("name", ["sc", "gen2"])
def test_no_routine_the_early_sweep_deletes_is_optimized(name, monkeypatch):
    swept = []
    optimized = []

    def early(program, *args, **kwargs):
        before = list(program.all_procs())
        REAL_DELETE_UNREACHABLE(program, *args, **kwargs)
        kept = set(map(id, program.all_procs()))
        swept.extend(p for p in before if id(p) not in kept)

    real_optimize_proc = pass_manager.optimize_proc

    def optimize_proc(program, proc, *args, **kwargs):
        optimized.append(proc)
        return real_optimize_proc(program, proc, *args, **kwargs)

    _patch_sweeps(monkeypatch, early, REAL_DELETE_UNREACHABLE)
    monkeypatch.setattr(pass_manager, "optimize_proc", optimize_proc)
    sources, train = _sources(name)
    toolchain = Toolchain(sources, train_inputs=train)
    for scope in ("c", "cp"):
        for strategy in STRATEGIES:
            toolchain.build(scope, HLOConfig(strategy=strategy))
    assert swept, "the early sweep deleted nothing: test is vacuous"
    assert not set(map(id, swept)) & set(map(id, optimized))


@pytest.mark.parametrize("name", ["sc", "gen2", "address"])
def test_builds_without_the_early_sweep_are_the_same(name, monkeypatch):
    sources, train = _sources(name)
    configs = [(scope, HLOConfig(strategy=strategy))
               for scope in ("c", "cp") for strategy in STRATEGIES]
    toolchain = Toolchain(sources, train_inputs=train)
    with_sweep = [_outputs(toolchain.build(scope, config)) for scope, config in configs]

    _patch_sweeps(monkeypatch, lambda *args, **kwargs: None, REAL_DELETE_UNREACHABLE)
    toolchain = Toolchain(sources, train_inputs=train)
    without = [_outputs(toolchain.build(scope, config)) for scope, config in configs]
    assert with_sweep == without
