"""Convenience wrapper for the two-compile PGO workflow.

``train()`` performs the instrumenting compile and the training run and
returns the profile database; the caller then compiles the sources
again and annotates that program.  ``Toolchain`` in :mod:`repro.linker`
drives both halves on one front-end compile per build.
"""

from __future__ import annotations

from typing import Dict, Sequence, Union

from ..frontend.driver import SourceList, compile_program
from ..interp.interpreter import DEFAULT_ENGINE, DEFAULT_MAX_STEPS, run_program
from .database import ProfileDatabase
from .instrument import instrument_program, strip_probes

InputVector = Sequence[Union[int, float]]


def train(
    sources: SourceList,
    training_inputs: Sequence[InputVector],
    entry: str = "main",
    max_steps: int = DEFAULT_MAX_STEPS,
    engine: str = DEFAULT_ENGINE,
) -> ProfileDatabase:
    """Instrumenting compile + training run(s) over ``training_inputs``.

    Each input vector is one training run; counts accumulate, so a
    training *set* (as SPEC provides) is a list of vectors.  The runs
    share one instrumented program (no run mutates it), and the
    database is merged after its probes are stripped, so the recorded
    fingerprints match a fresh compile of ``sources``.
    """
    program = compile_program(sources)
    probe_map = instrument_program(program)
    results = [
        run_program(
            program, inputs, entry=entry, max_steps=max_steps, engine=engine
        )
        for inputs in training_inputs
    ]
    strip_probes(program)
    db = ProfileDatabase()
    printed: Dict[str, str] = {}  # one print per procedure for all runs
    for result in results:
        db.merge_run(program, probe_map, result.probe_counts, result.steps, printed)
    return db
