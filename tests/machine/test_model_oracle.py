"""The production PA8000 model against the per-event reference model.

:class:`PA8000Model` skips work the per-event model does: on the fast
engine it applies a group of fetches as one compiled token, it checks
I-cache tags only when the fetched line changes, derives the I-cache
access count, and checks save traffic once per stack line.  Every
:class:`MachineMetrics` field must still come out identical to
:class:`~tests.machine.reference_model.ReferencePA8000Model`'s, on every
engine, under configurations small enough to evict and alias, and on
runs cut short by the step limit.
"""

from __future__ import annotations

import pytest

from repro.bench.lab import variant_config
from repro.core import HLOConfig, run_hlo
from repro.frontend import compile_program
from repro.interp import run_program
from repro.interp.errors import StepLimitExceeded
from repro.interp.fuzz import PA8000_SMALL
from repro.interp.interpreter import DEFAULT_MAX_STEPS, ENGINES
from repro.ir.basicblock import BasicBlock
from repro.ir.instructions import Jump
from repro.linker.toolchain import Toolchain
from repro.machine import MachineConfig, PA8000Model
from repro.workloads.generator import generate_sources
from repro.workloads.suite import all_workloads

from .reference_model import ReferencePA8000Model

CONFIGS = {
    "default": MachineConfig(),
    # Conflict eviction and predictor aliasing everywhere, and most
    # routines spill.
    "small": MachineConfig(**PA8000_SMALL),
    # A line count that is not a power of two.
    "3-line": MachineConfig(icache_bytes=96),
}
GENERATOR_SEEDS = range(12)
CUT_STEPS = 777


def both_models(program, inputs, engine, config, max_steps=DEFAULT_MAX_STEPS):
    """(reference, table-driven) metrics of one run of each model."""
    models = [
        ReferencePA8000Model(program, config),
        PA8000Model(program, config),
    ]
    for model in models:
        try:
            run_program(
                program, inputs, sink=model, max_steps=max_steps, engine=engine
            )
        except StepLimitExceeded:
            pass  # a cut run: its partial metrics must agree too
    return [model.metrics(0) for model in models]


@pytest.fixture(scope="module")
def generated():
    """(seed, variant, program, inputs) for each seed, unoptimized and
    after global HLO."""
    programs = []
    for seed in GENERATOR_SEEDS:
        sources = generate_sources(seed)
        inputs = [seed, seed * 7 + 3, seed % 5]
        optimized = compile_program(sources)
        run_hlo(optimized, HLOConfig())
        programs.append((seed, "unoptimized", compile_program(sources), inputs))
        programs.append((seed, "global", optimized, inputs))
    return programs


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("engine", ENGINES)
def test_generated_programs_match_reference(generated, engine, config):
    mismatches = []
    for seed, variant, program, inputs in generated:
        for max_steps in (DEFAULT_MAX_STEPS, CUT_STEPS):
            want, got = both_models(program, inputs, engine, CONFIGS[config], max_steps)
            if got != want:
                mismatches.append((seed, variant, max_steps, want, got))
    assert not mismatches, mismatches[0]


@pytest.fixture(scope="module")
def suite_builds():
    builds = []
    for workload in all_workloads():
        toolchain = Toolchain(
            list(workload.sources),
            train_inputs=[list(inputs) for inputs in workload.train_inputs],
        )
        for variant in ("neither", "both"):
            build = toolchain.build("cp", variant_config(HLOConfig(), variant))
            builds.append((workload, variant, build.program))
    return builds


def test_suite_workloads_match_reference(suite_builds):
    runs = 0
    for workload, variant, program in suite_builds:
        for inputs in workload.train_inputs:
            want, got = both_models(program, list(inputs), "fast", CONFIGS["default"])
            assert got == want, (workload.name, variant)
            runs += 1
    assert runs >= 20


CALLY = [
    (
        "m",
        """
        int tiny(int x) { return x + 1; }
        int main() {
          int total = 0;
          for (int i = 0; i < 50; i++) total += tiny(i);
          print_int(total);
          return 0;
        }
        """,
    )
]


@pytest.mark.parametrize("engine", ENGINES)
def test_instructions_off_the_layout_match_reference(engine):
    program = compile_program(CALLY)
    main = next(p for p in program.all_procs() if p.name == "main")
    entry = main.blocks[main.entry]
    # One instruction object at two positions.
    shared = entry.instrs[0]
    assert not shared.is_terminator
    entry.instrs.insert(1, shared)
    models = [ReferencePA8000Model(program), PA8000Model(program)]
    # A block added after the models were built, reached from the entry:
    # neither its instructions nor the new jump were laid out.
    late = BasicBlock("late", [instr.copy() for instr in entry.instrs])
    main.add_block(late)
    entry.instrs = [shared, Jump("late")]

    for model in models:
        run_program(program, [], sink=model, engine=engine)
    want, got = (model.metrics(0) for model in models)
    assert got == want
    assert got.instructions > 0


def test_traffic_before_any_fetch_matches_reference():
    # Engines always fetch before a call; the model is exact for any
    # event order all the same.
    program = compile_program(CALLY)
    main = next(p for p in program.all_procs() if p.name == "main")
    small = CONFIGS["small"]
    models = [ReferencePA8000Model(program, small), PA8000Model(program, small)]
    for model in models:
        model.on_call(main, "print_int", "builtin", 9)
        model.on_branch(main, main.entry, 0, "cond", True, main.entry)
        model.on_call(main, "tiny", "direct", 1)
        model.on_return("tiny", main)
    want, got = (model.metrics(0) for model in models)
    assert got == want
    assert got.icache_misses == 1
