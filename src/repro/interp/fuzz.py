"""Engine × sink differential deep-fuzz (``python -m repro.interp.fuzz``).

The per-PR differential suite (``tests/interp/test_engine_diff.py``)
pins 50 generator seeds against the no-sink and recording-sink
configurations.  This CLI is the wide version CI runs on a schedule:
hundreds of generator seeds, each executed under the optimized
engine × every sink *family* — no sink, :class:`CountingSink` (the
batched-``on_instr`` capability), :class:`SamplingSink` (exact
``on_instr`` + call/return, jittered sampling state), the
:class:`~repro.obs.runtime.RuntimeProfiler` (full-stack flamegraph
sampling — its digest equality is what makes a flamegraph
engine-independent), and the
:class:`~repro.machine.pa8000.PA8000Model` (every callback live, cache
and predictor state), once on the default machine and once on one small
enough to evict, alias and spill — and compared against the reference
engine on the complete observable outcome *plus* the sink's accumulated
state.

A mismatch writes one JSON artifact per failure into
``--artifact-dir`` — the seed, the engine/sink pair, the generated
sources, and the first divergence — so a scheduled CI run can upload
failing seeds for offline reproduction::

    python -m repro.interp.fuzz --seeds 500 --artifact-dir fuzz-failures

Exit status is the number of failing (seed, engine, sink) combinations,
capped at 99 (0 = all identical).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, List, Optional, Sequence, Tuple

from .diff import OPTIMIZED_ENGINES
from .errors import ExecError, StepLimitExceeded
from .events import CountingSink, RecordingSink
from .interpreter import DEFAULT_MAX_STEPS, Interpreter

#: Sink families in the matrix; "none" exercises the engines'
#: zero-callback fast paths, the rest each exercise one capability mode.
#: "flame" is the runtime profiler (exact on_instr + call/return, no
#: branch/mem): its digest equality across engines is what makes a
#: flamegraph a property of the execution, not of the engine.
#: "pa8000-small" is the PA8000 model on :data:`PA8000_SMALL`, whose
#: caches and predictor are small enough for generated programs to
#: evict, alias and spill.
SINK_KINDS = ("none", "counting", "sampling", "flame", "pa8000", "pa8000-small")
#: HLO strategies in the matrix; "none" runs the frontend output as-is
#: (the historical fuzz configuration), the other two run the full HLO
#: pipeline under that ``HLOConfig.strategy`` first.  Every strategy
#: must agree with the unoptimized program on observable semantics
#: (exit code + output), and every engine must agree on the complete
#: outcome *within* a strategy.
STRATEGIES = ("none", "global", "demand")
SAMPLING_FUZZ_RATE = 7
SAMPLING_FUZZ_DEPTH = 2
SAMPLING_FUZZ_SEED = 13
FLAME_FUZZ_RATE = 7
FLAME_FUZZ_SEED = 13
#: Two-line I and D caches, a four-entry predictor and a four-register
#: file; generated images (about 850 B) fit the default 8 KB I-cache
#: whole, so only this configuration sees conflict misses.
PA8000_SMALL = dict(
    icache_bytes=64,
    dcache_bytes=64,
    predictor_entries=4,
    reg_file=4,
    spill_rate_per_reg=0.05,
)


def _make_sink(kind: str, program):
    if kind == "none":
        return None
    if kind == "recording":
        return RecordingSink()
    if kind == "counting":
        return CountingSink()
    if kind == "sampling":
        from ..sampling import SamplingSink

        return SamplingSink(
            rate=SAMPLING_FUZZ_RATE,
            context_depth=SAMPLING_FUZZ_DEPTH,
            seed=SAMPLING_FUZZ_SEED,
        )
    if kind == "flame":
        from ..obs.runtime import RuntimeProfiler

        return RuntimeProfiler(rate=FLAME_FUZZ_RATE, seed=FLAME_FUZZ_SEED)
    if kind == "pa8000":
        from ..machine.pa8000 import PA8000Model

        return PA8000Model(program)
    if kind == "pa8000-small":
        from ..machine.pa8000 import MachineConfig, PA8000Model

        return PA8000Model(program, MachineConfig(**PA8000_SMALL))
    raise ValueError("unknown sink kind {!r}".format(kind))


def _sink_digest(kind: str, sink) -> Tuple:
    """The sink's complete accumulated state as comparable data."""
    if kind == "none":
        return ()
    if kind == "recording":
        return tuple(sink.events)
    if kind == "counting":
        return (sink.instrs, sink.branches, sink.calls, sink.returns, sink.mems)
    if kind == "sampling":
        return (
            sink.events,
            sink.samples,
            tuple(sorted(sink.block_samples.items())),
            tuple(sorted(sink.site_hits.items())),
            tuple(
                sorted(
                    (key, tuple(sorted(contexts.items())))
                    for key, contexts in sink.context_samples.items()
                )
            ),
        )
    if kind == "flame":
        return (
            sink.events,
            sink.samples,
            sink.max_stack_depth,
            tuple(sorted(sink.stack_samples.items())),
            tuple(sorted(sink.call_edges.items())),
        )
    if kind in ("pa8000", "pa8000-small"):
        return tuple(sorted(vars(sink.metrics(0)).items()))
    raise ValueError("unknown sink kind {!r}".format(kind))


def observe(
    program, inputs, engine: str, kind: str,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> Tuple[Tuple[Any, ...], Tuple]:
    """One (engine, sink) run as comparable data: (outcome, sink state)."""
    sink = _make_sink(kind, program)
    interp = Interpreter(
        program, inputs, sink=sink, max_steps=max_steps, engine=engine,
    )
    try:
        result = interp.run()
    except StepLimitExceeded as exc:
        return ("steplimit", str(exc), interp.steps), _sink_digest(kind, sink)
    except ExecError as exc:
        return ("execerror", str(exc), interp.steps), _sink_digest(kind, sink)
    outcome = (
        "result",
        result.exit_code,
        tuple(result.output),
        result.steps,
        result.call_count,
        dict(result.probe_counts),
    )
    return outcome, _sink_digest(kind, sink)


def _prepare_program(sources, strategy: str):
    """Compile, then (for "global"/"demand") run HLO under that strategy."""
    from ..frontend import compile_program

    program = compile_program(sources)
    if strategy != "none":
        from ..core.config import HLOConfig
        from ..core.hlo import run_hlo

        run_hlo(program, HLOConfig(strategy=strategy))
    return program


def _semantics(outcome: Tuple) -> Tuple:
    """The strategy-invariant slice of an outcome.

    Steps, call counts, and probe counts legitimately change when HLO
    restructures the program; the tag, exit code, and printed output
    must not.
    """
    return outcome[:3]


def fuzz_one(
    seed: int,
    engines: Sequence[str],
    kinds: Sequence[str],
    max_steps: int = DEFAULT_MAX_STEPS,
    strategies: Sequence[str] = ("none",),
) -> List[dict]:
    """All strategy × engine × sink divergences for one generator seed."""
    from ..workloads.generator import generate_sources

    sources = generate_sources(seed)
    inputs = [seed, seed * 7 + 3, seed % 5]
    failures: List[dict] = []
    anchor = None  # reference outcome of the unoptimized program
    for strategy in strategies:
        program = _prepare_program(sources, strategy)
        if strategy != "none":
            # Cross-strategy semantics: an HLO-transformed program must
            # print and exit exactly like the unoptimized one.
            if anchor is None:
                anchor = observe(
                    _prepare_program(sources, "none"), inputs, "reference",
                    "none", max_steps,
                )
            got = observe(program, inputs, "reference", "none", max_steps)
            if _semantics(got[0]) != _semantics(anchor[0]):
                failures.append(
                    {
                        "seed": seed,
                        "engine": "reference",
                        "sink": "none",
                        "strategy": strategy,
                        "inputs": inputs,
                        "max_steps": max_steps,
                        "outcome": repr(got[0]),
                        "reference_outcome": repr(anchor[0]),
                        "sink_state": "()",
                        "reference_sink_state": "()",
                        "sources": [list(pair) for pair in sources],
                    }
                )
                continue
        for kind in kinds:
            want = observe(program, inputs, "reference", kind, max_steps)
            for engine in engines:
                got = observe(program, inputs, engine, kind, max_steps)
                if got != want:
                    failures.append(
                        {
                            "seed": seed,
                            "engine": engine,
                            "sink": kind,
                            "strategy": strategy,
                            "inputs": inputs,
                            "max_steps": max_steps,
                            "outcome": repr(got[0]),
                            "reference_outcome": repr(want[0]),
                            "sink_state": repr(got[1]),
                            "reference_sink_state": repr(want[1]),
                            "sources": [list(pair) for pair in sources],
                        }
                    )
    return failures


def run_fuzz(
    seeds: Sequence[int],
    kinds: Sequence[str] = SINK_KINDS,
    max_steps: int = DEFAULT_MAX_STEPS,
    artifact_dir: Optional[str] = None,
    progress_every: int = 50,
    strategies: Sequence[str] = STRATEGIES,
) -> List[dict]:
    """Fuzz every seed; write one artifact per failure; return failures."""
    failures: List[dict] = []
    for count, seed in enumerate(seeds, start=1):
        failures.extend(
            fuzz_one(seed, OPTIMIZED_ENGINES, kinds, max_steps, strategies)
        )
        if progress_every and count % progress_every == 0:
            print(
                "fuzz: {}/{} seeds, {} failure(s)".format(
                    count, len(seeds), len(failures)
                )
            )
    if failures and artifact_dir:
        os.makedirs(artifact_dir, exist_ok=True)
        for failure in failures:
            path = os.path.join(
                artifact_dir,
                "seed{}_{}_{}_{}.json".format(
                    failure["seed"], failure["strategy"], failure["engine"],
                    failure["sink"],
                ),
            )
            with open(path, "w") as handle:
                json.dump(failure, handle, indent=2, sort_keys=True)
                handle.write("\n")
        print("wrote {} artifact(s) to {}".format(len(failures), artifact_dir))
    return failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.interp.fuzz",
        description="engine x sink differential fuzz over generator seeds",
    )
    parser.add_argument("--seeds", type=int, default=100, metavar="N",
                        help="number of generator seeds (default 100)")
    parser.add_argument("--start", type=int, default=0, metavar="S",
                        help="first seed (default 0)")
    parser.add_argument("--sinks", default=",".join(SINK_KINDS),
                        help="comma-separated sink kinds (default {})".format(
                            ",".join(SINK_KINDS)))
    parser.add_argument("--strategies", default=",".join(STRATEGIES),
                        help="comma-separated HLO strategies; 'none' skips "
                        "HLO entirely (default {})".format(
                            ",".join(STRATEGIES)))
    parser.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS)
    parser.add_argument("--artifact-dir", metavar="DIR",
                        help="write one JSON repro per failure here")
    args = parser.parse_args(argv)

    kinds = [k.strip() for k in args.sinks.split(",") if k.strip()]
    for kind in kinds:
        if kind not in SINK_KINDS + ("recording",):
            parser.error("unknown sink kind {!r}".format(kind))
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    for strategy in strategies:
        if strategy not in STRATEGIES:
            parser.error("unknown strategy {!r}".format(strategy))
    seeds = range(args.start, args.start + args.seeds)
    failures = run_fuzz(
        seeds, kinds=kinds, max_steps=args.max_steps,
        artifact_dir=args.artifact_dir, strategies=strategies,
    )
    print(
        "fuzz: {} seed(s) x {} strategy(ies) x {} engine(s) x {} sink(s): "
        "{} failure(s)".format(
            len(seeds), len(strategies), len(OPTIMIZED_ENGINES), len(kinds),
            len(failures)
        )
    )
    for failure in failures[:10]:
        print(
            "FAIL: seed {} strategy {} engine {} sink {}: {} != {}".format(
                failure["seed"], failure["strategy"], failure["engine"],
                failure["sink"], failure["outcome"],
                failure["reference_outcome"],
            ),
            file=sys.stderr,
        )
    return min(len(failures), 99)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
