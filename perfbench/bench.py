"""Measurement: set-up, timed rounds of ops, and the metrics they give.

An untraced run measures the workload's fixed number of ``rounds``
(every op once per round, in an order the seed shuffles), so every run
measures the same ops the same number of times whatever its seed or
the host's speed.  The round counts are sized so that a run measures
more than ``BENCHMARK.json``'s ``run_seconds`` at the reference host
speed; the time a run measured is in its result as ``measured_s``.
A traced run measures one untraced round
and then the same round again under the timing wrappers of
:mod:`perfbench.trace`; the two must give identical exact outputs.

Every op starts from the same collector state: what set-up built is
frozen out of garbage collection, and the garbage of the previous op is
collected before the clock starts.

Op times are reported at a reference host speed.  On a shared host the
speed of the whole machine drifts by 10-90% within seconds, more than
any regression bound.  So while a round runs, a fixed pure-Python probe
is timed every ``PROBE_INTERVAL_S`` from a timer signal, inside ops as
well as between them.  An op's time is its wall minus the probing that
ran inside it, scaled by ``PROBE_REFERENCE_S`` over the mean probe time
during and just around it.  The unscaled times are kept in the result
file as ``raw``.
"""

from __future__ import annotations

import gc
import random
import resource
import signal
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from . import trace
from .workloads import Key, Workload, WrongOutput

# What ``probe`` takes on the host the benchmark was defined on (one
# x86-64 vCPU of a 2-vCPU VM, Python 3.11): the unit op times are
# reported in.  Changing it rescales every op-time metric.
PROBE_REFERENCE_S = 0.005
# About a twentieth of a round's wall goes to probing at this interval.
PROBE_INTERVAL_S = 0.1

# (name, unit) of every metric, in the order BENCHMARK.json lists them.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
# Layers whose self time is reported, in seconds and as a share of the
# ops' wall.
LAYERS = (
    "frontend", "linker", "profile", "interp.train", "interp.eval",
    "core.hlo", "core.inline", "core.clone", "core.demand",
    "opt.stage", "opt.reopt", "resilience.snapshot", "machine.model",
    trace.UNTRACED,
)
COUNTS = (
    "core.inlines", "core.clones", "core.sites_considered", "core.passes_run",
    "analysis.hits", "analysis.misses",
    "resilience.snapshots", "resilience.restores",
    "interp.train.steps", "interp.eval.steps",
    "machine.icache_misses", "machine.dcache_misses", "machine.branch_mispredicts",
)
STEP_LAYERS = ("interp.train", "interp.eval")
PER_LAYER = (
    tuple((layer + ".self_s", "s") for layer in LAYERS)
    + tuple((layer + ".share", "share") for layer in LAYERS)
    + tuple((name, "count") for name in COUNTS)
    + tuple((layer + ".steps_per_s", "1/s") for layer in STEP_LAYERS)
    + (
        ("linker.isom_bytes", "bytes"),
        ("analysis.hit_rate", "share"),
        ("trace.overhead_ratio", "ratio"),
    )
)


def probe() -> float:
    """Seconds the host takes right now for a fixed pure-Python loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table: Dict[int, int] = {}
        for i in range(30000):
            key = i & 255
            table[key] = table.get(key, 0) + len(str(i))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Probe samples, as (start, end), taken on a timer while running."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._busy = False

    def _sample(self, _signum=None, _frame=None) -> None:
        if self._busy:  # a probe slower than the interval: skip a tick
            return
        self._busy = True
        try:
            start = time.perf_counter()
            probe()
            self.samples.append((start, time.perf_counter()))
        finally:
            self._busy = False

    @contextmanager
    def running(self) -> Iterator[None]:
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            self._sample()
            yield
            self._sample()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def op_time(self, start: float, end: float) -> Tuple[float, float]:
        """(wall without probing, the same at reference speed) of one op."""
        inside = sum(b - a for a, b in self.samples if start <= a and b <= end)
        near = [b - a for a, b in self.samples
                if start - PROBE_INTERVAL_S <= a <= end + PROBE_INTERVAL_S]
        if not near:  # ticks held off by a long native call: the closest one
            a, b = min(self.samples, key=lambda ab: abs(ab[0] - start))
            near = [b - a]
        own = end - start - inside
        return own, own * PROBE_REFERENCE_S / statistics.mean(near)


@dataclass
class Round:
    """One pass over every op; ``timed`` has the (raw, scaled) seconds
    of every op that passed its checks."""

    timed: Dict[Key, Tuple[float, float]] = field(default_factory=dict)
    probes: List[float] = field(default_factory=list)
    exact: Dict[Key, dict] = field(default_factory=dict)
    counts: Counter = field(default_factory=Counter)
    failures: List[dict] = field(default_factory=list)
    attempted: int = 0

    @property
    def scaled(self) -> List[float]:
        """Op times at the reference host speed."""
        return [scaled for _raw, scaled in self.timed.values()]

    def fail(self, key: Key, kind: str, error: BaseException) -> None:
        self.failures.append({
            "op": repr(key),
            "kind": kind,
            "error": "{}: {}".format(type(error).__name__, error),
        })


def run_round(workload: Workload, order: List[Key],
              recorder: Optional[trace.SpanRecorder] = None) -> Round:
    result = Round()
    speed = HostSpeed()
    spans = []
    with speed.running():
        for key in order:
            span = _run_op(workload, key, recorder, result)
            if span is not None:
                spans.append((key,) + span)
    result.timed = {key: speed.op_time(start, end) for key, start, end in spans}
    result.probes = [b - a for a, b in speed.samples]
    return result


def _run_op(workload: Workload, key: Key, recorder: Optional[trace.SpanRecorder],
            result: Round) -> Optional[Tuple[float, float]]:
    """Run, time and check one op; its (start, end) if it passed its checks.

    A function of its own so the op's input and output are freed when it
    returns, not inside the next op's timing.
    """
    result.attempted += 1
    prepared = workload.prepare(key)
    gc.collect()
    index = recorder.open(trace.OP) if recorder is not None else -1
    start = time.perf_counter()
    try:
        value = workload.op(prepared)
    except Exception as exc:
        result.fail(key, "exception", exc)
        return None
    finally:
        end = time.perf_counter()
        if recorder is not None:
            recorder.close(index)
    try:
        if recorder is not None:
            workload.trace_op(recorder, index, prepared)
        exact, counts = workload.check(key, value)
    except WrongOutput as exc:
        result.fail(key, "mismatch", exc)
        return None
    except Exception as exc:
        result.fail(key, "exception", exc)
        return None
    result.exact[key] = exact
    result.counts.update(counts)
    return start, end


def check_repeat(first: Round, later: Round) -> None:
    """Record as failures the ops whose exact outputs changed since ``first``."""
    for key, exact in later.exact.items():
        expected = first.exact.get(key)
        if expected is not None and exact != expected:
            later.fail(key, "non-deterministic", ValueError(
                "exact outputs {!r} differ from the first round's {!r}".format(
                    exact, expected)))


def _peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes, macOS bytes.
    return peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)


def op_times(rounds: List[Round], scaled: bool = True) -> List[float]:
    """Each op's time: the median over the rounds it passed in.

    Percentiles are taken over distinct ops, so an op repeated in several
    rounds counts once, at its typical time, and one slow repeat does not
    become the tail.
    """
    times: Dict[Key, List[float]] = {}
    for r in rounds:
        for key, pair in r.timed.items():
            times.setdefault(key, []).append(pair[1] if scaled else pair[0])
    return [statistics.median(t) for t in times.values()]


def op_timing(durations: List[float]) -> Dict[str, float]:
    """Throughput, median and 90th percentile of op times.

    The percentile interpolates between measured times: the default
    method extrapolates past the slowest op on a few samples.
    """
    if not durations:
        return {"ops_per_s": 0.0, "op_p50_ms": 0.0, "op_p90_ms": 0.0}
    p90 = (statistics.quantiles(durations, n=10, method="inclusive")[-1]
           if len(durations) >= 2 else durations[0])
    return {
        "ops_per_s": len(durations) / sum(durations),
        "op_p50_ms": statistics.median(durations) * 1e3,
        "op_p90_ms": p90 * 1e3,
    }


def end_to_end_metrics(rounds: List[Round], setup_s: List[float]) -> Dict[str, float]:
    """The end-to-end metrics, every time at the reference host speed."""
    metrics = {"setup_s": statistics.median(setup_s)}
    metrics.update(op_timing(op_times(rounds)))
    metrics["peak_rss_mb"] = _peak_rss_mb()
    return metrics


def per_layer_metrics(layers: Dict[str, dict], counts: Counter,
                      overhead_ratio: float) -> Dict[str, float]:
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        entry = layers.get(layer, {})
        metrics[layer + ".self_s"] = entry.get("self_s", 0.0)
        metrics[layer + ".share"] = entry.get("share", 0.0)
    for name in COUNTS + ("linker.isom_bytes",):
        metrics[name] = counts.get(name, 0)
    for layer in STEP_LAYERS:
        metrics[layer + ".steps_per_s"] = layers.get(layer, {}).get("steps_per_s", 0.0)
    lookups = counts["analysis.hits"] + counts["analysis.misses"]
    metrics["analysis.hit_rate"] = counts["analysis.hits"] / lookups if lookups else 0.0
    metrics["trace.overhead_ratio"] = overhead_ratio
    return metrics


def traced_layers(recorder: trace.SpanRecorder, traced_round: Round,
                  counts: Counter) -> Dict[str, dict]:
    """The layer table, self times at the reference host speed.

    Shares come from the spans' wall clock; a layer's ``self_s`` is its
    share of the traced round's op time at reference speed, so it is
    comparable with the end-to-end op times.
    """
    layers = trace.layer_table(recorder)
    op_s = sum(traced_round.scaled)
    for layer, entry in layers.items():
        entry["self_s"] = entry["share"] * op_s
        if layer in STEP_LAYERS:
            entry["steps"] = counts[layer + ".steps"]
            entry["steps_per_s"] = entry["steps"] / entry["self_s"] if entry["self_s"] else 0.0
    return layers


def measure(workload: Workload, seed: int = 0,
            traced: bool = False) -> Tuple[dict, Optional[trace.SpanRecorder]]:
    """Run one workload; returns (result, the traced run's recorder)."""
    setup_s = []  # (raw, scaled) of each set-up
    for _ in range(1 if traced else workload.setup_repeats):
        gc.collect()
        speed = HostSpeed()
        with speed.running():
            start = time.perf_counter()
            keys = workload.setup()
            end = time.perf_counter()
        setup_s.append(speed.op_time(start, end))
    gc.collect()
    gc.freeze()
    try:
        return _measure_rounds(workload, keys, setup_s, seed, traced)
    finally:
        gc.unfreeze()


def _measure_rounds(workload: Workload, keys: List[Key], setup_s: List[Tuple[float, float]],
                    seed: int, traced: bool) -> Tuple[dict, Optional[trace.SpanRecorder]]:
    rng = random.Random(seed)

    def shuffled() -> List[Key]:
        order = list(keys)
        rng.shuffle(order)
        return order

    result: dict = {"workload": workload.name, "seed": seed, "trace": int(traced)}
    recorder = None
    if traced:
        order = shuffled()
        plain = run_round(workload, order)
        recorder = trace.SpanRecorder()
        with trace.installed(recorder):
            traced_round = run_round(workload, order, recorder)
        check_repeat(plain, traced_round)
        rounds = [plain, traced_round]
        counts = traced_round.counts + recorder.counts
        layers = traced_layers(recorder, traced_round, counts)
        overhead = sum(traced_round.scaled) / sum(plain.scaled) if plain.timed else 0.0
        metrics = per_layer_metrics(layers, counts, overhead)
        units = dict(PER_LAYER)
        result["layers"] = layers
        result.update(workload.extras())
    else:
        rounds = []
        for _ in range(workload.rounds):
            rounds.append(run_round(workload, shuffled()))
            check_repeat(rounds[0], rounds[-1])
        metrics = end_to_end_metrics(rounds, [scaled for _raw, scaled in setup_s])
        units = dict(END_TO_END)

    outputs = [workload.outputs(r.exact) if r.exact else {} for r in rounds]
    failures = [f for r in rounds for f in r.failures]
    if any(o != outputs[0] for o in outputs[1:]):
        failures.append({"op": "outputs", "kind": "non-deterministic",
                         "error": "round outputs differ: {!r}".format(outputs)})
    attempted = sum(r.attempted for r in rounds)
    result.update({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted if attempted else 1.0,
        "failures": failures,
        "rounds": len(rounds),
        "measured_s": sum(raw for r in rounds for raw, _scaled in r.timed.values()),
        "outputs": outputs[0],
        "raw": dict(op_timing(op_times(rounds, scaled=False)),
                    setup_s=statistics.median(raw for raw, _scaled in setup_s)),
        "probe_median_s": statistics.median(p for r in rounds for p in r.probes),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    })
    return result, recorder
