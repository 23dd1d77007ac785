"""Differential harness: the optimized engine against the reference engine.

The pre-decoded engine (:mod:`repro.interp.engine`) carries a strong
claim — bit-identical observable behaviour to the reference loop: the
same :class:`~repro.interp.interpreter.Result` (exit code, output,
steps, every counter), the same sink event stream, and the same
exception outcome (message and step count included) on trapping or
step-limited runs.
This module is where that claim is *checked* rather than assumed: it
runs one program under an engine and the reference and compares
everything observable.

Used by ``tests/interp/test_engine_diff.py`` over the whole workload
suite plus seeded generator programs, by the CI engine-matrix job, and
by the deep-fuzz CLI (:mod:`repro.interp.fuzz`).
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple, Union

from ..ir.program import Program
from .errors import ExecError, StepLimitExceeded
from .events import RecordingSink
from .interpreter import DEFAULT_ENGINE, DEFAULT_MAX_STEPS, Interpreter

InputVector = Sequence[Union[int, float]]

#: Engines with the bit-identity claim against "reference".
OPTIMIZED_ENGINES = ("fast",)


def run_outcome(
    program: Program,
    inputs: InputVector = (),
    engine: str = DEFAULT_ENGINE,
    entry: str = "main",
    max_steps: int = DEFAULT_MAX_STEPS,
    record_events: bool = True,
) -> Tuple[Tuple[Any, ...], List[tuple]]:
    """One engine's complete observable outcome as comparable data.

    Returns ``(outcome, events)``.  ``outcome`` is one of::

        ("result", exit_code, output, steps, call_count,
                   probe_counts, site_counts, block_counts)
        ("steplimit", str(exc), steps)
        ("execerror", str(exc), steps)

    A trap's ``steps`` is ``Interpreter.steps`` after the exception.
    Counter fields are converted to plain dicts so a ``Counter`` from
    one engine compares equal to a plain dict from the other.
    ``events`` is the :class:`RecordingSink` stream (empty when
    ``record_events`` is false — the no-sink configuration, which
    exercises the engines' zero-callback fast paths).
    """
    sink = RecordingSink() if record_events else None
    interp = Interpreter(
        program, inputs, sink=sink, max_steps=max_steps, engine=engine,
    )
    try:
        result = interp.run(entry)
    except StepLimitExceeded as exc:
        return ("steplimit", str(exc), interp.steps), (sink.events if sink else [])
    except ExecError as exc:
        return ("execerror", str(exc), interp.steps), (sink.events if sink else [])
    outcome = (
        "result",
        result.exit_code,
        tuple(result.output),
        result.steps,
        result.call_count,
        dict(result.probe_counts),
        dict(result.site_counts),
        dict(result.block_counts),
    )
    return outcome, (sink.events if sink else [])


def diff_engines(
    program: Program,
    inputs: InputVector = (),
    entry: str = "main",
    max_steps: int = DEFAULT_MAX_STEPS,
    record_events: bool = True,
    engine: str = DEFAULT_ENGINE,
) -> List[str]:
    """Run ``engine`` and the reference; returns human-readable
    mismatches (empty = ok).

    Each engine gets a fresh interpreter over the same ``program``
    object (plans cached on it are reused across calls, which is the
    production configuration), and, when ``record_events`` is set, its
    own :class:`RecordingSink`.
    """
    opt, opt_events = run_outcome(
        program, inputs, engine=engine, entry=entry,
        max_steps=max_steps, record_events=record_events,
    )
    ref, ref_events = run_outcome(
        program, inputs, engine="reference", entry=entry,
        max_steps=max_steps, record_events=record_events,
    )
    problems: List[str] = []
    if opt[0] != ref[0]:
        problems.append(
            "outcome kind differs: {}={!r} reference={!r}".format(engine, opt, ref)
        )
        return problems
    if opt != ref:
        if opt[0] == "result":
            fields = (
                "exit_code", "output", "steps", "call_count",
                "probe_counts", "site_counts", "block_counts",
            )
            for name, fv, rv in zip(fields, opt[1:], ref[1:]):
                if fv != rv:
                    problems.append(
                        "{} differs: {}={!r} reference={!r}".format(
                            name, engine, fv, rv
                        )
                    )
        else:
            for name, fv, rv in zip(("message", "steps"), opt[1:], ref[1:]):
                if fv != rv:
                    problems.append(
                        "{} {} differs: {}={!r} reference={!r}".format(
                            opt[0], name, engine, fv, rv
                        )
                    )
    if opt_events != ref_events:
        position = len(opt_events)
        for index, (fe, re_) in enumerate(zip(opt_events, ref_events)):
            if fe != re_:
                position = index
                break
        problems.append(
            "event streams diverge at index {} ({} has {}, reference {}): "
            "{}={!r} reference={!r}".format(
                position,
                engine,
                len(opt_events),
                len(ref_events),
                engine,
                opt_events[position] if position < len(opt_events) else None,
                ref_events[position] if position < len(ref_events) else None,
            )
        )
    return problems


def assert_identical(
    program: Program,
    inputs: InputVector = (),
    entry: str = "main",
    max_steps: int = DEFAULT_MAX_STEPS,
    label: Optional[str] = None,
    engine: str = DEFAULT_ENGINE,
) -> None:
    """Assert ``engine`` and the reference agree, with and without an
    event sink."""
    for record_events in (False, True):
        problems = diff_engines(
            program, inputs, entry=entry, max_steps=max_steps,
            record_events=record_events, engine=engine,
        )
        if problems:
            raise AssertionError(
                "engines diverge{}{}:\n  {}".format(
                    " on " + label if label else "",
                    " (no sink)" if not record_events else " (recording sink)",
                    "\n  ".join(problems),
                )
            )
