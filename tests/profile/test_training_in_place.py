"""Training probes the build's one compile in place and leaves it as the
front end made it.

``Toolchain`` compiles a build's sources once.  Training inserts the
probes into that program, runs every training input on it, and strips
the probes again, so HLO must get exactly what a second compile would
produce, and the profile must hold exactly the counts that a fresh
instrumented compile per training input would record.
"""

import pytest

from repro.frontend import compile_program
from repro.interp import run_program
from repro.ir.printer import print_program
from repro.linker.toolchain import Toolchain
from repro.profile import ProfileDatabase, instrument_program, train
from repro.profile.fingerprint import fingerprint_program
from repro.workloads.generator import generate_sources
from repro.workloads.suite import get_workload

COMPRESS = get_workload("compress")
CASES = [
    pytest.param(
        list(COMPRESS.sources), [list(t) for t in COMPRESS.train_inputs],
        id="compress",
    ),
    pytest.param(generate_sources(1), [[3], [7]], id="generated-two-inputs"),
]


def _fresh_compile_per_input(sources, inputs):
    """The profile as one instrumented compile per input records it."""
    db = ProfileDatabase()
    for vector in inputs:
        program = compile_program(sources)
        probe_map = instrument_program(program)
        result = run_program(program, vector)
        db.merge_run(program, probe_map, result.probe_counts, result.steps)
    return db


def _assert_same_counts(db, sources, inputs):
    oracle = _fresh_compile_per_input(sources, inputs)
    assert db.block_counts == oracle.block_counts
    assert db.site_counts == oracle.site_counts
    assert db.training_runs == oracle.training_runs == len(inputs)
    assert db.training_steps == oracle.training_steps


@pytest.mark.parametrize("sources,inputs", CASES)
def test_training_leaves_the_program_as_compiled(sources, inputs):
    program = compile_program(sources)
    before = {
        (proc.name, label): list(block.instrs)
        for proc in program.all_procs()
        for label, block in proc.blocks.items()
    }
    db, _units = Toolchain(sources, inputs)._train(program)

    fresh = compile_program(sources)
    assert print_program(program) == print_program(fresh)
    for proc in program.all_procs():
        for label, block in proc.blocks.items():
            kept = before[(proc.name, label)]
            assert len(block.instrs) == len(kept)
            assert all(a is b for a, b in zip(block.instrs, kept))
    assert program._plan_cache is None
    for proc, fresh_proc in zip(program.all_procs(), fresh.all_procs()):
        assert proc.new_reg().name == fresh_proc.new_reg().name
        assert proc.new_label() == fresh_proc.new_label()

    _assert_same_counts(db, sources, inputs)
    assert db.fingerprints == fingerprint_program(fresh)


@pytest.mark.parametrize("sources,inputs", CASES)
def test_profile_train_records_the_same_database(sources, inputs):
    db = train(sources, inputs)
    _assert_same_counts(db, sources, inputs)
    assert db.fingerprints == fingerprint_program(compile_program(sources))
