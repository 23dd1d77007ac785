"""Substrate micro-benchmarks: compiler and simulator throughput.

Not a paper table — these track the toolchain's own performance so
regressions in the IR, front end, optimizer, HLO, or interpreter show
up in benchmark history.  Multi-round timing is meaningful here.

The one gated timing is the fast engine's floor: on each of three
suite programs it must run at least ``FAST_ENGINE_FLOOR`` times as
fast as the reference loop.  Both walls come from the same process, so
the ratio transfers across hosts where raw steps/s does not.
"""

from __future__ import annotations

import gc
import time

import pytest

from repro.core import HLOConfig, run_hlo
from repro.frontend import compile_program
from repro.interp import Interpreter, run_program
from repro.ir import parse_module, print_module
from repro.opt import optimize_program
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def li_sources():
    return list(get_workload("li").sources)


def test_frontend_throughput(benchmark, li_sources):
    program = benchmark(compile_program, li_sources)
    assert program.proc("main") is not None


def test_isom_roundtrip_throughput(benchmark, li_sources):
    program = compile_program(li_sources)
    module = next(iter(program.modules.values()))
    text = print_module(module)

    def roundtrip():
        return print_module(parse_module(text))

    assert benchmark(roundtrip) == text


def test_optimizer_throughput(benchmark, li_sources):
    def build_and_optimize():
        program = compile_program(li_sources)
        optimize_program(program)
        return program

    program = benchmark(build_and_optimize)
    assert program.size() > 0


def test_hlo_throughput(benchmark, li_sources):
    def build_and_hlo():
        program = compile_program(li_sources)
        return run_hlo(program, HLOConfig(budget_percent=400))

    report = benchmark(build_and_hlo)
    assert report.inlines > 0


def test_interpreter_throughput(benchmark, li_sources):
    program = compile_program(li_sources)
    inputs = get_workload("li").train_inputs[0]

    def run():
        return run_program(program, inputs)

    result = benchmark(run)
    assert result.exit_code == result.exit_code  # deterministic completion


FAST_ENGINE_FLOOR = 2.0
FLOOR_ROUNDS = 5


@pytest.mark.parametrize("name", ["compress", "sc", "vortex"])
def test_fast_engine_floor(name):
    """The fast engine runs a front-end-only program sink-free on its
    reference input at least ``FAST_ENGINE_FLOOR`` times as fast as the
    reference loop.

    Each engine runs once untimed (plan compilation lands there), then
    the engines alternate for ``FLOOR_ROUNDS`` timed rounds with the
    collector parked, so drift on a shared host hits both alike; each
    engine keeps its best wall.
    """
    workload = get_workload(name)
    program = workload.compile()
    engines = ("fast", "reference")
    for engine in engines:
        Interpreter(program, workload.ref_input, engine=engine).run()
    best = dict.fromkeys(engines, float("inf"))
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(FLOOR_ROUNDS):
            for engine in engines:
                interp = Interpreter(program, workload.ref_input, engine=engine)
                started = time.perf_counter()
                interp.run()
                best[engine] = min(best[engine], time.perf_counter() - started)
            gc.collect()
    finally:
        if gc_was_enabled:
            gc.enable()
    speedup = best["reference"] / best["fast"]
    print(
        "{}: {} steps, reference {:,.0f} steps/s, fast {:,.0f} steps/s, "
        "{:.2f}x".format(
            name,
            interp.steps,
            interp.steps / best["reference"],
            interp.steps / best["fast"],
            speedup,
        )
    )
    assert speedup >= FAST_ENGINE_FLOOR, (
        "{}: fast engine {:.2f}x the reference loop, below the {:.1f}x "
        "floor".format(name, speedup, FAST_ENGINE_FLOOR)
    )
