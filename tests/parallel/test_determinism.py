"""Parallel builds must be byte-identical to serial builds.

The acceptance bar for the pipeline: ``--jobs 4`` and ``--jobs 1``
produce byte-identical isoms and behaviorally identical executables,
for every scope, cold or warm cache.  The pipeline earns this by
routing every module through its isom text at a single normalization
point, so worker count and completion order can't leak into the
output.
"""

from __future__ import annotations

import pytest

from repro.linker.toolchain import Toolchain
from repro.parallel import compile_sources

from .conftest import GATE_PROGRAMS, REF_INPUT, TRAIN_INPUTS, gate_program, isoms


@pytest.mark.parametrize("scope", ["base", "cp"])
@pytest.mark.parametrize("program", GATE_PROGRAMS)
def test_jobs_do_not_change_output(program, scope):
    sources, train_inputs, ref_input = gate_program(program)
    serial = Toolchain(sources, train_inputs=train_inputs, jobs=1).build(scope)
    wide = Toolchain(sources, train_inputs=train_inputs, jobs=4).build(scope)
    assert isoms(serial) == isoms(wide)
    behavior_serial = serial.run(ref_input)[1].behavior()
    behavior_wide = wide.run(ref_input)[1].behavior()
    assert behavior_serial == behavior_wide


def test_cache_does_not_change_output(sources, tmp_path):
    uncached = Toolchain(sources, train_inputs=TRAIN_INPUTS, jobs=1).build("cp")
    cold = Toolchain(
        sources, train_inputs=TRAIN_INPUTS, cache_dir=str(tmp_path)
    ).build("cp")
    warm = Toolchain(
        sources, train_inputs=TRAIN_INPUTS, cache_dir=str(tmp_path)
    ).build("cp")
    assert isoms(uncached) == isoms(cold) == isoms(warm)


def test_compile_sources_merge_order_is_source_order(sources):
    serial, _stats = compile_sources(sources, jobs=1)
    wide, _stats = compile_sources(sources, jobs=3)
    assert list(serial.modules) == [name for name, _text in sources]
    assert list(wide.modules) == list(serial.modules)
    from repro.linker.isom import to_isom_text

    for name in serial.modules:
        assert to_isom_text(serial.modules[name]) == to_isom_text(wide.modules[name])


def test_legacy_default_path_behavior_unchanged(sources):
    """No --jobs / --cache-dir: the pre-pipeline compile path runs."""
    legacy = Toolchain(sources, train_inputs=TRAIN_INPUTS)
    piped = Toolchain(sources, train_inputs=TRAIN_INPUTS, jobs=1)
    result_legacy = legacy.build("cp")
    result_piped = piped.build("cp")
    assert not result_legacy.diagnostics.cache_enabled
    assert result_piped.diagnostics.cache_enabled
    behavior_legacy = result_legacy.run(REF_INPUT)[1].behavior()
    behavior_piped = result_piped.run(REF_INPUT)[1].behavior()
    assert behavior_legacy == behavior_piped
