"""Engine × sink matrix: both engines under every sink family.

The differential suite pins the optimized engine against the
reference with no sink and a recording sink; this file sweeps the full
capability matrix CI's ``engine-matrix`` job runs — each engine in
``ENGINES`` under no sink, :class:`CountingSink` (batched ``on_instr``),
:class:`SamplingSink` (jittered sampling state, call/return exact), the
runtime profiler, and the :class:`~repro.machine.pa8000.PA8000Model`
(every callback live) on the default machine and on a small one —
asserting the complete outcome *and* the sink's accumulated state are
identical across engines.  Sink state is the sharp edge: a sink's
counters diverge the moment an engine batches, reorders, or skips a
callback the reference delivers, even when program output matches.

The scheduled deep-fuzz (``python -m repro.interp.fuzz``) is the wide
version of this file: same observation machinery, hundreds of seeds.
"""

from __future__ import annotations

import pytest

from repro.frontend import compile_program
from repro.interp.diff import OPTIMIZED_ENGINES
from repro.interp.fuzz import SINK_KINDS, fuzz_one, observe
from repro.interp.interpreter import ENGINES
from repro.workloads.generator import generate_sources
from repro.workloads.suite import get_workload

MATRIX_SEEDS = (0, 3, 9, 14, 23, 31, 42)


@pytest.mark.parametrize("kind", SINK_KINDS)
@pytest.mark.parametrize("engine", OPTIMIZED_ENGINES)
class TestGeneratedMatrix:
    def test_generated_seeds_identical(self, engine, kind):
        failures = []
        for seed in MATRIX_SEEDS:
            failures.extend(fuzz_one(seed, [engine], [kind]))
        assert not failures, failures[0]


@pytest.mark.parametrize("strategy", ("global", "demand"))
@pytest.mark.parametrize("engine", OPTIMIZED_ENGINES)
class TestStrategyMatrix:
    # The fuzz harness's strategy dimension: run full HLO under each
    # strategy first, then demand byte-identical outcomes across both
    # engines and every sink family — plus the harness's built-in
    # check that the transformed program prints and exits exactly like
    # the unoptimized one.
    def test_hlo_outputs_identical(self, engine, strategy):
        failures = []
        for seed in (0, 9, 42):
            failures.extend(
                fuzz_one(seed, [engine], SINK_KINDS, strategies=[strategy])
            )
        assert not failures, failures[0]


@pytest.mark.parametrize("kind", SINK_KINDS)
@pytest.mark.parametrize("name", ["compress", "sc"])
class TestWorkloadMatrix:
    def test_workload_identical_across_engines(self, name, kind):
        workload = get_workload(name)
        program = workload.compile()
        inputs = list(workload.train_inputs[0])
        observations = {
            engine: observe(program, inputs, engine, kind)
            for engine in ENGINES
        }
        want = observations["reference"]
        for engine in OPTIMIZED_ENGINES:
            assert observations[engine] == want, (
                "{} diverges from reference on {} under {!r} sink".format(
                    engine, name, kind
                )
            )


@pytest.mark.parametrize("kind", SINK_KINDS)
class TestTrapMatrix:
    # Sinks must see identical prefixes even when the run traps or the
    # step limit expires mid-callback-window.
    TRAP = """
    int helper(int x) { return 100 / x; }
    int main() {
      int i = 3;
      while (i > 0 - 2) { print_int(helper(i)); i = i - 1; }
      return 0;
    }
    """

    def test_trap_mid_run(self, kind):
        program = compile_program([("m", self.TRAP)])
        want = observe(program, [], "reference", kind)
        assert want[0][0] == "execerror"
        for engine in OPTIMIZED_ENGINES:
            assert observe(program, [], engine, kind) == want

    def test_step_limit_mid_run(self, kind):
        program = compile_program([("m", self.TRAP)])
        for max_steps in (1, 7, 19):
            want = observe(program, [], "reference", kind, max_steps)
            assert want[0][0] == "steplimit"
            for engine in OPTIMIZED_ENGINES:
                got = observe(program, [], engine, kind, max_steps)
                assert got == want, "max_steps={}".format(max_steps)


class TestZeroCostWhenOff:
    """An unobserved run must carry zero observability residue.

    The fast engine compiles one plan per sink capability mode; a
    constructed-but-disabled :class:`RuntimeProfiler` negotiates the
    no-sink mode, so it runs on the *same* plan as no sink (attaching
    one costs nothing until it is enabled; ``test_engine.py``'s
    ``test_per_sink_mode_plans`` pins the plan reuse).
    """

    SOURCES = [(
        "m",
        "int helper(int x) { return x * 2 + 1; }\n"
        "int main() { int i = 0; int acc = 0;\n"
        "  while (i < 50) { acc = acc + helper(i); i = i + 1; }\n"
        "  print_int(acc); return 0; }\n",
    )]

    def test_disabled_profiler_costs_nothing_measurable(self):
        # Same engine plan either way, so the walls should be
        # statistically indistinguishable; assert a generous ceiling
        # rather than equality to keep this robust under CI jitter.
        import time

        from repro.interp.interpreter import run_program
        from repro.obs.runtime import RuntimeProfiler

        program = compile_program(self.SOURCES)
        inputs = []

        def best_wall(sink):
            walls = []
            for _ in range(3):
                start = time.perf_counter()
                for _burst in range(5):
                    run_program(program, inputs, sink=sink, engine="fast")
                walls.append(time.perf_counter() - start)
            return min(walls)

        run_program(program, inputs, engine="fast")  # warm the plan
        off = best_wall(None)
        disabled = best_wall(RuntimeProfiler(enabled=False))
        assert disabled <= off * 1.5

    def test_enabled_profiler_observes_the_run(self):
        from repro.interp.interpreter import run_program
        from repro.obs.runtime import RuntimeProfiler

        program = compile_program(self.SOURCES)
        profiler = RuntimeProfiler(rate=1, seed=0)
        run_program(program, [], sink=profiler, engine="fast")
        assert profiler.events > 0
        assert profiler.call_edges[("main", "helper")] == 50


def test_fuzz_entrypoint_runs_clean():
    # The scheduled CI job shells out to the module; keep a smoke-sized
    # invocation of the real entry point green in tier-1.
    from repro.interp.fuzz import run_fuzz

    assert run_fuzz(range(5), progress_every=0) == []


def test_generator_sources_are_deterministic():
    # Artifact reproduction depends on seed -> sources being stable.
    assert generate_sources(17) == generate_sources(17)
