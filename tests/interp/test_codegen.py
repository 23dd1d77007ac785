"""Structural tests for the codegen engine's emitted plans.

The differential suite (``tests/interp/test_engine_diff.py``) proves
the codegen engine is observably identical to the reference; this file
pins the *shape* of what it emits — the properties
``docs/performance.md`` documents and the speedup depends on:

- small straight-line procedures compile without the label-dispatch
  loop (``plan.dispatch is False``);
- single-in-edge branch successors are inlined under their branch as
  superinstructions (``plan.inlined``) instead of bouncing through
  dispatch;
- call-free, fixed-arity procedures additionally compile a plain
  function fast path (``plan.leaf_fn``) that direct call sites invoke
  without a trampoline round trip;
- plans are keyed by sink capability mode, so observed and unobserved
  runs never share specialized code;
- Programs with warm plan caches still pickle (closures and
  ``exec``-compiled code objects don't); the copy on the far side of a
  process boundary rebuilds plans from source, under either engine.
"""

from __future__ import annotations

import pickle

import pytest

from repro.frontend import compile_program
from repro.interp.codegen import emitted_source
from repro.interp.events import CountingSink
from repro.interp.interpreter import Interpreter, run_program
from repro.parallel.executor import parallel_map
from repro.workloads.suite import get_workload

LOOPY = """
int add(int a, int b) { return a + b; }
int spread(int base, ...) {
  int acc = base;
  for (int k = 0; k < va_count(); k++) acc += va_arg(k);
  return acc;
}
int main() {
  int i = 0; int acc = 0;
  while (i < 5) { acc = acc + add(acc, i); i = i + 1; }
  print_int(spread(acc, 1, 2));
  return acc;
}
"""


def _program():
    return compile_program([("m", LOOPY)])


def _plans_by_name(program):
    return {plan.procname: plan for plan in program._codegen_cache.plans.values()}


class TestEmittedShape:
    def test_straight_line_proc_skips_dispatch(self):
        program = _program()
        source = emitted_source(program, "add")
        plan = _plans_by_name(program)["add"]
        assert plan.dispatch is False
        assert "while 1:" not in source
        assert "_L = " not in source

    def test_branchy_proc_uses_label_dispatch(self):
        program = _program()
        source = emitted_source(program, "main")
        plan = _plans_by_name(program)["main"]
        assert plan.dispatch is True
        assert "while 1:" in source

    def test_single_edge_successors_become_superinstructions(self):
        # The loop body and exit block each have one in-edge; they must
        # be emitted inline under the branch, not as dispatch arms.
        program = _program()
        emitted_source(program, "main")
        plan = _plans_by_name(program)["main"]
        assert set(plan.inlined)
        proc = program.modules["m"].procs["main"]
        assert set(plan.inlined) <= set(proc.blocks)

    def test_direct_calls_are_pre_resolved(self):
        program = _program()
        source = emitted_source(program, "main")
        # Per-activation call-site cache: resolved once, reused.
        assert "_fc0" in source
        assert "st.resolve('add')" in source


class TestLeafFastPath:
    def test_call_free_proc_gets_leaf_function(self):
        program = _program()
        emitted_source(program, "add")
        plan = _plans_by_name(program)["add"]
        assert plan.leaf_fn is not None
        assert "def _leaf(st, A):" in plan.source

    def test_calling_proc_has_no_leaf_function(self):
        program = _program()
        emitted_source(program, "main")
        assert _plans_by_name(program)["main"].leaf_fn is None

    def test_varargs_proc_has_no_leaf_function(self):
        # Leaf entry skips the trampoline's varargs split, so varargs
        # procedures must never advertise one.
        program = _program()
        emitted_source(program, "spread")
        plan = _plans_by_name(program)["spread"]
        assert plan.is_varargs
        assert plan.leaf_fn is None


class TestModeKeying:
    def test_sink_modes_get_distinct_plans(self):
        program = _program()
        run_program(program, engine="codegen")
        unobserved = len(program._codegen_cache.plans)
        run_program(program, sink=CountingSink(), engine="codegen")
        assert len(program._codegen_cache.plans) > unobserved
        modes = {mode for (_, mode) in program._codegen_cache.plans}
        assert len(modes) == 2

    def test_same_mode_hits_cache(self):
        program = _program()
        run_program(program, engine="codegen")
        cache = program._codegen_cache
        compiled = cache.plans_compiled
        hits = cache.cache_hits
        run_program(program, engine="codegen")
        assert cache.plans_compiled == compiled
        assert cache.cache_hits > hits


def _run_shard(item):
    """Worker body: run one input vector on a Program that arrived by pickle."""
    program, inputs, engine = item
    interp = Interpreter(program, inputs, engine=engine)
    result = interp.run()
    return result.steps, interp.plans_compiled


class TestPickling:
    def test_warm_program_pickles_with_caches_stripped(self):
        for engine, cache in (("fast", "_plan_cache"), ("codegen", "_codegen_cache")):
            program = _program()
            want = run_program(program, engine=engine)
            assert getattr(program, cache).plans  # warm: holds unpicklable plans
            clone = pickle.loads(pickle.dumps(program))
            assert clone._codegen_cache is None
            assert clone._plan_cache is None
            got = run_program(clone, engine=engine)
            assert got.output == want.output
            assert got.steps == want.steps
            assert getattr(clone, cache).plans_compiled > 0

    @pytest.mark.parametrize("engine", ["fast", "codegen"])
    def test_sharded_workers_rebuild_plans(self, engine):
        # One shard per input vector, each run in a worker process.  The
        # Program is warmed first, so a nonzero plans_compiled in every
        # worker proves the caches were stripped in transit and rebuilt
        # from source on the far side.
        workload = get_workload("compress")
        program = workload.compile()
        vectors = [list(t) for t in workload.train_inputs]
        vectors.append(list(workload.ref_input))
        serial = [run_program(program, v, engine=engine).steps for v in vectors]
        shards, outcome = parallel_map(
            _run_shard, [(program, v, engine) for v in vectors], jobs=2
        )
        assert not outcome.fell_back
        assert all(compiled > 0 for _steps, compiled in shards)
        assert [steps for steps, _compiled in shards] == serial
