"""The pre-decoded engine: selection, plan caching, capabilities, metrics."""

import gc
import pickle
import weakref

import pytest

from repro.frontend import compile_program
from repro.interp import (
    DEFAULT_ENGINE,
    ENGINES,
    CountingSink,
    EventSink,
    Interpreter,
    RecordingSink,
    run_program,
)
from repro.ir import Imm
from repro.ir.instructions import Ret
from repro.parallel.executor import parallel_map
from repro.workloads.suite import get_workload

from ..conftest import single_proc_program

COUNT_SRC = [("main", """
int helper(int x) { return x * 3 + 1; }
int main() {
  int acc = 0;
  for (int i = 0; i < 20; i++) acc = acc + helper(i);
  print_int(acc);
  return acc % 128;
}
""")]


class TestEngineSelection:
    def test_default_engine_is_fast(self):
        assert DEFAULT_ENGINE == "fast"
        assert Interpreter(single_proc_program(lambda b: b.ret(1))).engine == "fast"

    def test_engines_tuple(self):
        assert set(ENGINES) == {"fast", "reference"}

    def test_explicit_reference(self):
        program = single_proc_program(lambda b: b.ret(5))
        interp = Interpreter(program, engine="reference")
        assert interp.engine == "reference"
        assert interp.run().exit_code == 5

    def test_unknown_engine_rejected(self):
        program = single_proc_program(lambda b: b.ret(1))
        for engine in ("turbo", "codegen"):
            with pytest.raises(ValueError):
                Interpreter(program, engine=engine)

    def test_run_program_engine_kwarg(self):
        program = compile_program(COUNT_SRC)
        fast = run_program(program, engine="fast")
        ref = run_program(program, engine="reference")
        assert fast.behavior() == ref.behavior()
        assert fast.steps == ref.steps


class TestPlanCache:
    def test_plans_cached_across_runs(self):
        program = compile_program(COUNT_SRC)
        first = Interpreter(program)
        first.run()
        assert first.plans_compiled > 0
        second = Interpreter(program)
        second.run()
        assert second.plans_compiled == 0
        assert second.plan_cache_hits > 0

    def test_reference_engine_reports_no_plans(self):
        program = compile_program(COUNT_SRC)
        interp = Interpreter(program, engine="reference")
        interp.run()
        assert interp.plans_compiled == 0
        assert interp.plan_cache_hits == 0

    def test_mutated_procedure_recompiles(self):
        # A stale plan executing would return the old constant; the
        # fingerprint check must notice the IR changed underneath it.
        program = single_proc_program(lambda b: b.ret(7))
        assert run_program(program).exit_code == 7
        proc = program.proc("main")
        for block in proc.blocks.values():
            for instr in block.instrs:
                if isinstance(instr, Ret):
                    instr.value = Imm(9)
        result = run_program(program)
        assert result.exit_code == 9

    def test_invalidate_plans_resets_cache(self):
        program = compile_program(COUNT_SRC)
        Interpreter(program).run()
        assert program._plan_cache is not None
        program.invalidate_plans()
        assert program._plan_cache is None
        interp = Interpreter(program)
        interp.run()
        assert interp.plans_compiled > 0

    def test_globals_change_flushes_plans(self):
        # Plans embed resolved global addresses, so a new global (which
        # shifts the layout signature) must flush the whole cache.
        program = compile_program(COUNT_SRC)
        Interpreter(program).run()
        from repro.ir.module import GlobalVar

        mod = next(iter(program.modules.values()))
        mod.globals["late_g"] = GlobalVar("late_g", size=4)
        interp = Interpreter(program)
        interp.run()
        assert interp.plans_compiled > 0
        assert interp.plan_cache_hits == 0

    def test_per_sink_mode_plans(self):
        # A counting sink needs a different specialization than no sink;
        # both plans coexist in the cache under their mode keys.
        program = compile_program(COUNT_SRC)
        no_sink = Interpreter(program)
        no_sink.run()
        counting = Interpreter(program, sink=CountingSink())
        counting.run()
        assert counting.plans_compiled > 0  # not served by the no-sink plans
        again = Interpreter(program, sink=CountingSink())
        again.run()
        assert again.plans_compiled == 0
        # A disabled profiler negotiates the no-sink mode, so it runs on
        # the no-sink plans: attaching one costs nothing until enabled.
        from repro.obs.runtime import RuntimeProfiler

        disabled = Interpreter(program, sink=RuntimeProfiler(enabled=False))
        disabled.run()
        assert disabled.plans_compiled == 0
        assert disabled.plan_cache_hits == 2


class TestLifetime:
    def test_a_run_program_and_its_model_are_freed_by_reference_counting(self):
        from repro.machine.pa8000 import PA8000Model

        workload = get_workload("compress")
        for with_model in (False, True):
            gc.disable()
            try:
                program = workload.compile()
                model = PA8000Model(program) if with_model else None
                Interpreter(program, list(workload.ref_input), sink=model).run()
                refs = [weakref.ref(program)]
                if with_model:
                    refs.append(weakref.ref(model))
                del program, model
                assert [ref() for ref in refs] == [None] * len(refs)
            finally:
                gc.enable()


def _run_shard(item):
    """Worker body: run one input vector on a Program that arrived by pickle."""
    program, inputs = item
    interp = Interpreter(program, inputs)
    result = interp.run()
    return result.steps, interp.plans_compiled


class TestPickling:
    def test_warm_program_pickles_with_caches_stripped(self):
        program = compile_program(COUNT_SRC)
        want = run_program(program)
        assert program._plan_cache.plans  # warm: holds unpicklable plans
        clone = pickle.loads(pickle.dumps(program))
        assert clone._plan_cache is None
        got = run_program(clone)
        assert got.output == want.output
        assert got.steps == want.steps
        assert clone._plan_cache.plans_compiled > 0

    def test_sharded_workers_rebuild_plans(self):
        # One shard per input vector, each run in a worker process.  The
        # Program is warmed first, so a nonzero plans_compiled in every
        # worker proves the cache was stripped in transit and rebuilt
        # from the IR on the far side.
        workload = get_workload("compress")
        program = workload.compile()
        vectors = [list(t) for t in workload.train_inputs]
        vectors.append(list(workload.ref_input))
        serial = [run_program(program, v).steps for v in vectors]
        shards, outcome = parallel_map(
            _run_shard, [(program, v) for v in vectors], jobs=2
        )
        assert not outcome.fell_back
        assert all(compiled > 0 for _steps, compiled in shards)
        assert [steps for steps, _compiled in shards] == serial


class TestCapabilityNegotiation:
    def test_counting_sink_results_match(self):
        program = compile_program(COUNT_SRC)
        fast_sink, ref_sink = CountingSink(), CountingSink()
        run_program(program, sink=fast_sink, engine="fast")
        run_program(program, sink=ref_sink, engine="reference")
        assert fast_sink.instrs == ref_sink.instrs
        assert fast_sink.branches == ref_sink.branches
        assert fast_sink.calls == ref_sink.calls
        assert fast_sink.returns == ref_sink.returns
        assert fast_sink.mems == ref_sink.mems

    def test_recording_sink_streams_match(self):
        program = compile_program(COUNT_SRC)
        fast_sink, ref_sink = RecordingSink(), RecordingSink()
        run_program(program, sink=fast_sink, engine="fast")
        run_program(program, sink=ref_sink, engine="reference")
        assert fast_sink.events == ref_sink.events

    def test_sampling_sink_declares_capabilities(self):
        from repro.sampling.sampler import SamplingSink

        assert SamplingSink.needs_branch is False
        assert SamplingSink.needs_mem is False
        # One on_instr per fetch: exact sample placement.
        assert SamplingSink.fetch_tokens is EventSink.fetch_tokens

    def test_pa8000_parity_across_engines(self):
        from repro.machine.pa8000 import simulate

        program = compile_program(COUNT_SRC)
        fast_metrics, fast_result = simulate(program, engine="fast")
        ref_metrics, ref_result = simulate(program, engine="reference")
        assert fast_result.behavior() == ref_result.behavior()
        assert fast_metrics.cycles == ref_metrics.cycles
        assert fast_metrics.instructions == ref_metrics.instructions


class TestToolchainAndMetrics:
    def test_toolchain_threads_engine(self):
        from repro.linker.toolchain import Toolchain

        fast = Toolchain(COUNT_SRC, train_inputs=[[]]).build("cp")
        ref = Toolchain(COUNT_SRC, train_inputs=[[]], engine="reference").build("cp")
        assert fast.engine == "fast"
        assert ref.engine == "reference"
        assert fast.run()[1].behavior() == ref.run()[1].behavior()
