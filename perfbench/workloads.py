"""The benchmark's three workloads.

A workload is a list of operations ("ops") that the seed shuffles.  An
op is the unit a user waits for: one build for ``compile`` and
``large-program``, one simulation for ``simulate``.  Only the op call
is timed; preparing its input and checking its output are not.

Correctness is checked against oracles that do not come from the code
under test's optimizer: every simulated program must reproduce the
behaviour of its unoptimized compile run on the reference engine, and
every op's exact outputs (isom digest, compile units, code size,
cycles) must repeat across rounds and between the untraced and traced
runs.
"""

from __future__ import annotations

import hashlib
import pickle
import statistics
import time
from dataclasses import replace
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.bench.lab import variant_config
from repro.core.config import HLOConfig
from repro.frontend.driver import compile_program
from repro.interp.events import CountingSink
from repro.interp.interpreter import ENGINES, run_program
from repro.linker.isom import to_isom_text
from repro.linker.toolchain import SCOPES, Toolchain
from repro.machine.pa8000 import simulate
from repro.workloads.generator import generate_sources
from repro.workloads.suite import Workload as SuiteProgram
from repro.workloads.suite import all_workloads, get_workload

BUDGETS = (100, 400, 1000)
# Figure 6 reports its speedups at the suite's default budget.
FIG6_BUDGET = 400
STRATEGIES = ("global", "demand")
# A 4-module generated program: built once per strategy in set-up so the
# first timed build does not pay for the imports every build uses.
WARM_UP_SHAPE = {"n_modules": 4, "funcs_per_module": 2}
# The one generated program ``large-program`` builds, whatever the run's
# seed: build time differs between generated programs by more than the
# bounds absorb, so only the order of its builds varies.
LARGE_PROGRAM_SEED = 0
LARGE_PROGRAM_SHAPE = {
    "n_modules": 100,
    "funcs_per_module": 4,
    "n_globals": 25,
    "extern_window": 8,
}
SINKS = ("none", "counting", "pa8000")

Key = Hashable


class WrongOutput(Exception):
    """An op finished, but its output differs from the oracle."""


def reference_behavior(sources, inputs) -> tuple:
    """The oracle: the unoptimized program run on the reference engine."""
    program = compile_program(list(sources))
    return run_program(program, inputs, engine="reference").behavior()


def isom_digest(program) -> str:
    digest = hashlib.sha256()
    for module in program.modules.values():
        digest.update(to_isom_text(module).encode("utf-8"))
    return digest.hexdigest()


def _expect(behavior, expected, key) -> None:
    if behavior != expected:
        raise WrongOutput("{}: behaviour {!r} differs from the reference {!r}".format(
            key, behavior, expected))


def _suite(programs: Optional[Sequence[str]]) -> List[SuiteProgram]:
    return all_workloads() if programs is None else [get_workload(n) for n in programs]


def _toolchain(program: SuiteProgram) -> Toolchain:
    return Toolchain(
        list(program.sources), train_inputs=[list(t) for t in program.train_inputs]
    )


def _build_exact(build) -> dict:
    return {
        "isom_digest": isom_digest(build.program),
        "compile_units": build.stats.compile_units,
        "code_size": build.stats.code_size_instrs,
    }


def _build_counts(build) -> dict:
    report = build.report
    return {
        "core.inlines": report.inlines,
        "core.clones": report.clones,
        "core.sites_considered": report.sites_considered,
        "core.passes_run": report.passes_run,
        "analysis.hits": report.analysis_hits,
        "analysis.misses": report.analysis_misses,
    }


def _build_outputs(exact: Dict[Key, dict]) -> dict:
    keys = sorted(exact)
    return {
        "builds": len(keys),
        "compile_units_total": sum(exact[k]["compile_units"] for k in keys),
        "code_size_total": sum(exact[k]["code_size"] for k in keys),
    }


class Workload:
    """One workload: ``setup`` returns the op keys; ``op`` is timed."""

    name = ""
    # Set-up runs this many times per untraced run and the median is reported.
    setup_repeats = 3
    # An untraced run measures exactly this many rounds.
    rounds = 1

    def setup(self) -> List[Key]:
        raise NotImplementedError

    def prepare(self, key: Key):
        """The op's input, made before the clock starts."""
        return key

    def op(self, prepared):
        raise NotImplementedError

    def check(self, key: Key, value) -> Tuple[dict, dict]:
        """(exact outputs, per-layer counts) of one op; WrongOutput if wrong."""
        raise NotImplementedError

    def trace_op(self, recorder, index: int, prepared) -> None:
        """Add derived spans under the traced op span ``index``."""

    def outputs(self, exact: Dict[Key, dict]) -> dict:
        """The round's exact outputs, summed in key order."""
        raise NotImplementedError

    def extras(self) -> dict:
        """Measurements only the traced run takes."""
        return {}


class CompileSweep(Workload):
    """Table 1's sweep: program x budget x scope, no simulation.

    Every op builds with a fresh Toolchain, so each p and cp build pays
    for its own training run, as a cold build does, and an op's cost
    does not depend on the order the seed gives.
    """

    name = "compile"
    # Set-up is one small warm-up build, so a few repeats leave its
    # median at the mercy of one slow one.
    setup_repeats = 9

    def __init__(self, programs: Optional[Sequence[str]] = None,
                 budgets: Sequence[int] = BUDGETS):
        self.programs = programs
        self.budgets = tuple(budgets)
        self._suite: Dict[str, SuiteProgram] = {}

    def setup(self) -> List[Key]:
        suite = _suite(self.programs)
        self._suite = {w.name: w for w in suite}
        # The first build in a process imports the passes it uses; no
        # later build pays that, so it happens before timing.
        _toolchain(suite[0]).build("cp", HLOConfig(budget_percent=self.budgets[0]))
        return [(w.name, b, s) for w in suite for b in self.budgets for s in SCOPES]

    def op(self, key):
        name, budget, scope = key
        return _toolchain(self._suite[name]).build(scope, HLOConfig(budget_percent=budget))

    def check(self, key, build):
        return _build_exact(build), _build_counts(build)

    def outputs(self, exact):
        return _build_outputs(exact)


class Simulate(Workload):
    """Figure 6/8's evaluation runs, each run cold.

    Set-up builds, at cp, Figure 6's baseline ("neither", at its budget)
    and "both" along Figure 8's budget axis; an op is one
    ``BuildResult.run(ref_input)`` on the PA8000 model, on a fresh
    unpickled copy of the program so no execution plan is cached.
    "inline" and "clone" alone are left out so a run fits its time.
    """

    name = "simulate"
    # Set-up's 40 builds take a sixth of a run's wall; repeating them
    # would not fit.  The one set-up is already the sum of 50 steps.
    setup_repeats = 1
    # With one round, the tail of the 40 op times moved by up to 8%
    # between runs; each op's time is the median of two cold runs.
    rounds = 2

    def __init__(self, programs: Optional[Sequence[str]] = None,
                 budgets: Sequence[int] = BUDGETS):
        self.programs = programs
        self.budgets = tuple(budgets)
        self._suite: Dict[str, SuiteProgram] = {}
        self._oracle: Dict[str, tuple] = {}
        self._builds: Dict[Key, tuple] = {}

    def setup(self) -> List[Key]:
        suite = _suite(self.programs)
        self._suite = {w.name: w for w in suite}
        self._oracle = {w.name: reference_behavior(w.sources, w.ref_input) for w in suite}
        self._builds = {}
        configs = [(FIG6_BUDGET, "neither")] + [(b, "both") for b in self.budgets]
        for program in suite:
            toolchain = _toolchain(program)
            for budget, variant in configs:
                config = variant_config(HLOConfig(budget_percent=budget), variant)
                build = toolchain.build("cp", config)
                self._builds[program.name, budget, variant] = (
                    build, pickle.dumps(build.program)
                )
        return sorted(self._builds)

    def _cold(self, key):
        build, blob = self._builds[key]
        return replace(build, program=pickle.loads(blob))

    def prepare(self, key):
        return key, self._cold(key)

    def op(self, prepared):
        key, build = prepared
        return build.run(self._suite[key[0]].ref_input)

    def check(self, key, value):
        metrics, result = value
        _expect(result.behavior(), self._oracle[key[0]], key)
        counts = {
            "interp.eval.steps": result.steps,
            "machine.icache_misses": metrics.icache_misses,
            "machine.dcache_misses": metrics.dcache_misses,
            "machine.branch_mispredicts": metrics.branch_mispredicts,
        }
        return {"cycles": metrics.cycles}, counts

    def trace_op(self, recorder, index, prepared):
        """Split the op: a sink-free cold run of the same build is the
        interpreter's part, the rest of the simulation the machine model's."""
        key, build = prepared
        cold = self._cold(key)
        start = time.perf_counter()
        run_program(cold.program, self._suite[key[0]].ref_input, engine=cold.engine)
        sink_free = time.perf_counter() - start
        _name, op_start, op_end, _parent = recorder.spans[index]
        split = min(op_end, op_start + sink_free)
        recorder.add("interp.eval", op_start, split, index)
        recorder.add("machine.model", split, op_end, index)

    def outputs(self, exact):
        keys = sorted(exact)
        out = {
            "sims": len(keys),
            "cycles_geomean": statistics.geometric_mean(exact[k]["cycles"] for k in keys),
        }
        speedups = [
            exact[n, FIG6_BUDGET, "neither"]["cycles"] / exact[n, FIG6_BUDGET, "both"]["cycles"]
            for n in sorted(self._suite)
            if (n, FIG6_BUDGET, "neither") in exact and (n, FIG6_BUDGET, "both") in exact
        ]
        if speedups:
            out["speedup_geomean"] = statistics.geometric_mean(speedups)
        return out

    def extras(self):
        return {"engine_sink": self.engine_sink_matrix()}

    def engine_sink_matrix(self) -> Dict[str, float]:
        """Steps per second per (engine, sink) on the Figure 6 "both" builds.

        A cold run uses a fresh unpickled copy; the warm run is a second
        run of that copy, reusing whatever the engine cached on it.
        """
        keys = [k for k in sorted(self._builds) if k[1:] == (FIG6_BUDGET, "both")]
        matrix = {}
        for engine in ENGINES:
            if engine == "reference":
                continue
            for sink in SINKS:
                steps = {"cold": 0, "warm": 0}
                walls = {"cold": 0.0, "warm": 0.0}
                for key in keys:
                    program = self._cold(key).program
                    inputs = self._suite[key[0]].ref_input
                    for phase in ("cold", "warm"):
                        start = time.perf_counter()
                        steps[phase] += _run_with_sink(program, inputs, engine, sink)
                        walls[phase] += time.perf_counter() - start
                for phase, wall in walls.items():
                    name = "interp.{}.{}.{}_steps_per_s".format(engine, sink, phase)
                    matrix[name] = steps[phase] / wall if wall else 0.0
        return matrix


def _run_with_sink(program, inputs, engine: str, sink: str) -> int:
    if sink == "pa8000":
        return simulate(program, inputs, engine=engine)[1].steps
    counting = CountingSink() if sink == "counting" else None
    return run_program(program, inputs, sink=counting, engine=engine).steps


class LargeProgram(Workload):
    """A generated whole program built at cp under both strategies.

    Few hot regions in a lot of cold code: whole-program scans (the
    input-stage optimizer, snapshots, the front end) dominate here,
    unlike the many small suite programs of ``compile``.  Each build is
    simulated once, untimed, only to check its behaviour, and later
    rounds must reproduce every build of the first.  Three rounds let
    each build's time be a median that one slow repeat cannot move.
    """

    name = "large-program"
    rounds = 3

    def __init__(self, **shape):
        self.shape = dict(LARGE_PROGRAM_SHAPE, **shape)
        self._sources: list = []
        self._oracle: tuple = ()

    def setup(self) -> List[Key]:
        warm_up = generate_sources(0, **WARM_UP_SHAPE)
        for strategy in STRATEGIES:
            self._build(warm_up, strategy)
        self._sources = generate_sources(LARGE_PROGRAM_SEED, **self.shape)
        self._oracle = reference_behavior(self._sources, ())
        return list(STRATEGIES)

    @staticmethod
    def _build(sources, strategy: str):
        toolchain = Toolchain(sources, train_inputs=[[]], config=HLOConfig(strategy=strategy))
        return toolchain.build("cp")

    def op(self, strategy):
        return self._build(self._sources, strategy)

    def check(self, strategy, build):
        metrics, result = build.run(())
        _expect(result.behavior(), self._oracle, strategy)
        exact = _build_exact(build)
        exact["cycles"] = metrics.cycles
        return exact, _build_counts(build)

    def outputs(self, exact):
        out = _build_outputs(exact)
        out["cycles_geomean"] = statistics.geometric_mean(
            exact[k]["cycles"] for k in sorted(exact)
        )
        return out


WORKLOADS = {w.name: w for w in (CompileSweep, Simulate, LargeProgram)}
