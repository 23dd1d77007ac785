"""Quick benchmark smoke run for CI (``python -m repro.bench.smoke``).

Builds a handful of suite workloads through the parallel/incremental
pipeline and writes one JSON blob (``BENCH_smoke.json``) with, per
workload: deterministic compile cost (``compile_units``), simulated
run cycles on the reference input, the SHA-256 checksum of the final
isoms, and the host wall time.  On top of that it measures:

- **parallel speedup** — the whole workload set is built once serially
  and once fanned out over worker processes (``--jobs``); the per-build
  checksums must match exactly, which is the determinism gate;
- **cache effectiveness** — each workload is built cold and then warm
  against an on-disk module cache; the warm build must recompile zero
  modules (100% hit rate);
- **observability overhead** — the set is built once with the null
  observer (tracing off, the default) and once with tracer + metrics +
  ledger all live; both walls and their ratio land in the report, so a
  tracing hot path that grows expensive shows up in CI.  With
  ``--trace-out`` / ``--metrics-out`` the instrumented pass also writes
  its artifacts for upload;
- **interpreter engine speedup** — each workload runs sink-free under
  both engines (reference loop, pre-decoded fast engine), one untimed
  warmup then best-of-N interleaved walls (``--repeat``).  The ratio
  gates in-run: fast must stay ≥ 2× the reference on every workload —
  the acceptance bar the fast engine shipped against.
  ``interp.steps_per_sec`` and the plan-cache counters land in the
  report on the canonical ``interp.*`` metric names.

Every other gate (sampled decisions, runtime observer, fleet, serve,
scale) has one owner elsewhere: a tier-1 test or a dedicated CI job
(docs/performance.md, "Where each gate runs").

``--check --baseline benchmarks/baseline.json`` turns the run into a
regression gate: ``compile_units`` or ``cycles`` more than 15% above
the committed baseline fails the run, and so does an engine *speedup*
more than 15% below baseline (a ratio of two walls on the same host,
so it transfers across machines where raw wall time does not).  Wall
times and absolute steps/sec are *recorded* but only gated behind
``--gate-wall-time``, because a wall-time baseline measured on one
machine is meaningless on another; the deterministic cost model is the
portable proxy (docs/performance.md).

Refresh the baseline after an intentional compiler change with::

    python -m repro.bench.smoke --write-baseline benchmarks/baseline.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
import time
from typing import List, Optional, Sequence, Tuple

SCHEMA_VERSION = 10
DEFAULT_WORKLOADS = ("compress", "sc", "vortex")
DEFAULT_SCOPE = "cp"
REGRESSION_THRESHOLD = 0.15
MIN_INTERP_SPEEDUP = 2.0
INTERP_REPEATS = 5


def _build_one(item: Tuple[str, str]) -> Tuple[str, dict]:
    """Worker body: build one workload end to end and measure it.

    Top-level so it pickles under ``ProcessPoolExecutor``.  The inner
    build runs the pipeline serially (``jobs=1``) — parallelism comes
    from fanning *workloads* out, one per worker, not from nesting
    pools.
    """
    from ..linker.isom import to_isom_text
    from ..linker.toolchain import Toolchain
    from ..workloads.suite import get_workload

    name, scope = item
    workload = get_workload(name)
    toolchain = Toolchain(
        list(workload.sources),
        train_inputs=[list(t) for t in workload.train_inputs],
        jobs=1,
    )
    started = time.perf_counter()
    result = toolchain.build(scope)
    wall = time.perf_counter() - started
    metrics, _run = result.run(workload.ref_input)
    digest = hashlib.sha256()
    for mod_name in sorted(result.program.modules):
        digest.update(to_isom_text(result.program.modules[mod_name]).encode("utf-8"))
    return name, {
        "compile_units": round(result.stats.compile_units, 2),
        "cycles": round(metrics.cycles, 2),
        "checksum": digest.hexdigest(),
        "wall_s": round(wall, 4),
    }


def _run_suite(names: Sequence[str], scope: str, jobs: int) -> Tuple[dict, float]:
    """Build every workload (jobs-wide fan-out); returns (results, wall)."""
    from ..parallel.executor import parallel_map

    items = [(name, scope) for name in names]
    started = time.perf_counter()
    built, _outcome = parallel_map(_build_one, items, jobs=jobs)
    wall = time.perf_counter() - started
    return dict(built), wall


def _measure_cache(names: Sequence[str], scope: str) -> dict:
    """Cold + warm disk-cache builds; the warm pass must be all hits."""
    from ..linker.toolchain import Toolchain
    from ..workloads.suite import get_workload

    cold = {"hits": 0, "misses": 0}
    warm = {"hits": 0, "misses": 0, "modules_compiled": 0}
    with tempfile.TemporaryDirectory(prefix="repro-smoke-cache-") as cache_dir:
        for name in names:
            workload = get_workload(name)
            for temperature in (cold, warm):
                toolchain = Toolchain(
                    list(workload.sources),
                    train_inputs=[list(t) for t in workload.train_inputs],
                    cache_dir=cache_dir,
                )
                diag = toolchain.build(scope).diagnostics
                temperature["hits"] += diag.cache_hits
                temperature["misses"] += diag.cache_misses
                if temperature is warm:
                    warm["modules_compiled"] += diag.modules_compiled
    warm_total = warm["hits"] + warm["misses"]
    return {
        "cold_hits": cold["hits"],
        "cold_misses": cold["misses"],
        "warm_hits": warm["hits"],
        "warm_misses": warm["misses"],
        "warm_modules_recompiled": warm["modules_compiled"],
        "warm_hit_rate": round(warm["hits"] / warm_total, 4) if warm_total else 0.0,
    }


def _measure_observability(
    names: Sequence[str],
    scope: str,
    trace_out: Optional[str] = None,
    metrics_out: Optional[str] = None,
) -> dict:
    """Same serial build set, observer off vs. fully on.

    Wall times are best-of-two to damp scheduler noise; the ratio is
    recorded, not gated (host wall never transfers across machines —
    same policy as the speedup numbers).
    """
    from ..linker.toolchain import Toolchain
    from ..obs import BuildObserver, InliningLedger, MetricsRegistry, Tracer
    from ..workloads.suite import get_workload

    def build_all(observer) -> float:
        started = time.perf_counter()
        for name in names:
            workload = get_workload(name)
            toolchain = Toolchain(
                list(workload.sources),
                train_inputs=[list(t) for t in workload.train_inputs],
                jobs=1,
            )
            toolchain.build(scope, observer=observer)
        return time.perf_counter() - started

    disabled = min(build_all(None) for _ in range(2))
    observer = BuildObserver(
        tracer=Tracer(), metrics=MetricsRegistry(), ledger=InliningLedger()
    )
    enabled = min(build_all(observer) for _ in range(2))

    if trace_out:
        observer.tracer.write(trace_out)
    if metrics_out:
        observer.metrics.write(metrics_out)

    return {
        "disabled_wall_s": round(disabled, 4),
        "enabled_wall_s": round(enabled, 4),
        "overhead_ratio": round(enabled / disabled, 3) if disabled else 0.0,
        "trace_events": len(observer.tracer.events()),
        "ledger_decisions": observer.ledger.considered,
    }


def _measure_interp(
    names: Sequence[str], repeats: int = INTERP_REPEATS
) -> dict:
    """Both engines on the same host run, sink-free, best-of-N.

    Runs each workload's un-optimized program (front end only — engine
    throughput is a property of the interpreter, not of HLO) on its
    reference input under the reference loop and the pre-decoded fast
    engine.  The per-workload *speedup* is the portable figure: both
    walls come from the same host and run, so their ratio survives
    machine changes where raw steps/sec cannot.  It is gated in-run:
    fast over reference (≥ ``MIN_INTERP_SPEEDUP``).  The fast-engine
    figures are read back through the canonical ``interp.*`` metric
    names (:func:`repro.obs.metrics.collect_interp_metrics`) so the
    report and ``--metrics-out`` consumers agree on spelling.
    """
    import gc

    from ..interp.interpreter import Interpreter
    from ..obs import names as metric_names
    from ..obs.metrics import collect_interp_metrics
    from ..workloads.suite import get_workload

    engines = ("fast", "reference")
    per = {}
    plans_compiled = plan_cache_hits = 0
    for name in names:
        workload = get_workload(name)
        program = workload.compile()
        # One untimed warm-up per engine: absorbs plan compilation (its
        # counters are what we report), faults code in, settles caches —
        # without it the first timed round pays one-off costs and the
        # best-of-N gate gets flaky on shared CI runners.
        for engine in engines:
            interp = Interpreter(program, workload.ref_input, engine=engine)
            interp.run()
            plans_compiled += interp.plans_compiled
            plan_cache_hits += interp.plan_cache_hits
        # Timed rounds interleave the engines so temporal drift (turbo
        # decay, a background process waking up) lands on both equally
        # instead of skewing the ratio; GC is parked so a collection
        # pause cannot charge one engine for another's garbage.
        walls = {engine: None for engine in engines}
        last_fast = None
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(repeats):
                for engine in engines:
                    interp = Interpreter(
                        program, workload.ref_input, engine=engine
                    )
                    started = time.perf_counter()
                    interp.run()
                    wall = time.perf_counter() - started
                    best = walls[engine]
                    walls[engine] = wall if best is None else min(best, wall)
                    plan_cache_hits += interp.plan_cache_hits
                    if engine == "fast":
                        last_fast = interp
                gc.collect()
        finally:
            if gc_was_enabled:
                gc.enable()
        steps = last_fast.steps
        fast_sps = steps / walls["fast"] if walls["fast"] else 0.0
        ref_sps = steps / walls["reference"] if walls["reference"] else 0.0
        reg = collect_interp_metrics(last_fast, steps_per_sec=fast_sps)
        per[name] = {
            "steps": reg.value(metric_names.INTERP_STEPS),
            "steps_per_sec": reg.value(metric_names.INTERP_STEPS_PER_SEC),
            "reference_steps_per_sec": round(ref_sps, 1),
            "speedup": round(fast_sps / ref_sps, 3) if ref_sps else 0.0,
        }
    speedups = [entry["speedup"] for entry in per.values()]
    return {
        "engine": "fast",
        "min_speedup": MIN_INTERP_SPEEDUP,
        "mean_speedup": round(sum(speedups) / len(speedups), 3)
        if speedups else 0.0,
        "plans_compiled": plans_compiled,
        "plan_cache_hits": plan_cache_hits,
        "repeats": repeats,
        "workloads": per,
    }


def run_smoke(
    names: Sequence[str] = DEFAULT_WORKLOADS,
    scope: str = DEFAULT_SCOPE,
    jobs: int = 4,
    trace_out: Optional[str] = None,
    metrics_out: Optional[str] = None,
    repeats: int = INTERP_REPEATS,
) -> Tuple[dict, List[str]]:
    """The full smoke measurement; returns (report, failure messages).

    Failures here are *internal* invariants (determinism, warm-cache
    hit rate) — baseline regressions are judged by :func:`check`.
    """
    failures: List[str] = []

    serial_results, serial_wall = _run_suite(names, scope, jobs=1)
    parallel_results, parallel_wall = _run_suite(names, scope, jobs=jobs)

    for name in names:
        if serial_results[name]["checksum"] != parallel_results[name]["checksum"]:
            failures.append(
                "determinism: {} isoms differ between jobs=1 and jobs={}".format(
                    name, jobs
                )
            )

    observability = _measure_observability(
        names, scope, trace_out=trace_out, metrics_out=metrics_out
    )

    interp = _measure_interp(names, repeats=repeats)
    for name, entry in interp["workloads"].items():
        if entry["speedup"] < MIN_INTERP_SPEEDUP:
            failures.append(
                "interp: {} fast-engine speedup {:.2f}x below the {:.1f}x "
                "floor".format(name, entry["speedup"], MIN_INTERP_SPEEDUP)
            )

    cache = _measure_cache(names, scope)
    if cache["warm_modules_recompiled"] != 0:
        failures.append(
            "cache: warm rebuild recompiled {} module(s), expected 0".format(
                cache["warm_modules_recompiled"]
            )
        )
    if cache["warm_hit_rate"] != 1.0:
        failures.append(
            "cache: warm hit rate {} != 1.0".format(cache["warm_hit_rate"])
        )

    report = {
        "schema": SCHEMA_VERSION,
        "scope": scope,
        "workloads": parallel_results,
        "totals": {
            "compile_units": round(
                sum(r["compile_units"] for r in parallel_results.values()), 2
            ),
            "cycles": round(sum(r["cycles"] for r in parallel_results.values()), 2),
        },
        "build": {
            "jobs": jobs,
            "serial_wall_s": round(serial_wall, 4),
            "parallel_wall_s": round(parallel_wall, 4),
            "speedup": round(serial_wall / parallel_wall, 3) if parallel_wall else 0.0,
        },
        "cache": cache,
        "observability": observability,
        "interp": interp,
    }
    return report, failures


def check(
    report: dict,
    baseline: dict,
    threshold: float = REGRESSION_THRESHOLD,
    gate_wall_time: bool = False,
) -> List[str]:
    """Compare a smoke report against the committed baseline."""
    failures: List[str] = []
    base_workloads = baseline.get("workloads", {})
    for name, measured in report["workloads"].items():
        expected = base_workloads.get(name)
        if expected is None:
            continue  # new workload: no baseline yet
        for metric in ("compile_units", "cycles"):
            before, after = expected.get(metric), measured.get(metric)
            if not before or after is None:
                continue
            growth = (after - before) / before
            if growth > threshold:
                failures.append(
                    "{}: {} regressed {:.1f}% ({} -> {}), limit {:.0f}%".format(
                        name, metric, growth * 100, before, after, threshold * 100
                    )
                )
        if gate_wall_time:
            before, after = expected.get("wall_s"), measured.get("wall_s")
            if before and after and (after - before) / before > threshold:
                failures.append(
                    "{}: wall_s regressed ({} -> {})".format(name, before, after)
                )
    base_interp = baseline.get("interp", {}).get("workloads", {})
    measured_interp = report.get("interp", {}).get("workloads", {})
    for name, measured in measured_interp.items():
        expected = base_interp.get(name)
        if expected is None:
            continue
        # The speedup is a same-host wall ratio, so it transfers across
        # machines and gates unconditionally; absolute steps/sec is
        # host-bound wall clock and hides behind --gate-wall-time like
        # every other raw timing.
        before, after = expected.get("speedup"), measured.get("speedup")
        if before and after is not None:
            drop = (before - after) / before
            if drop > threshold:
                failures.append(
                    "{}: interp speedup regressed {:.1f}% "
                    "({} -> {}), limit {:.0f}%".format(
                        name, drop * 100, before, after, threshold * 100,
                    )
                )
        if not gate_wall_time:
            continue
        before, after = expected.get("steps_per_sec"), measured.get("steps_per_sec")
        if before and after and (before - after) / before > threshold:
            failures.append(
                "{}: interp steps_per_sec regressed ({} -> {})".format(
                    name, before, after
                )
            )
    return failures


def baseline_view(report: dict) -> dict:
    """The committable subset of a report: deterministic fields only."""
    return {
        "schema": report["schema"],
        "scope": report["scope"],
        "workloads": {
            name: {
                "compile_units": entry["compile_units"],
                "cycles": entry["cycles"],
                "checksum": entry["checksum"],
            }
            for name, entry in report["workloads"].items()
        },
        "totals": report["totals"],
        # Speedup (a same-host wall ratio) and steps/sec both land in
        # the baseline; check() gates the former always and the latter
        # only behind --gate-wall-time.
        "interp": {
            "workloads": {
                name: {
                    "speedup": entry["speedup"],
                    "steps_per_sec": entry["steps_per_sec"],
                }
                for name, entry in report.get("interp", {})
                .get("workloads", {}).items()
            },
        },
    }


def step_summary(report: dict, failures: Sequence[str]) -> str:
    """A GitHub step-summary Markdown view of one smoke report.

    Renders the per-workload engine table (steps/sec under both engines
    plus the gated ratio) — the numbers needed to judge a bench
    regression without downloading ``BENCH_smoke.json``.
    """
    interp = report.get("interp", {})
    lines = [
        "## Bench smoke (schema v{})".format(report.get("schema", "?")),
        "",
        "| workload | reference steps/s | fast steps/s | fast/ref |",
        "|---|---:|---:|---:|",
    ]
    for name, entry in sorted(interp.get("workloads", {}).items()):
        lines.append(
            "| {} | {:,.0f} | {:,.0f} | {:.2f}x |".format(
                name,
                entry.get("reference_steps_per_sec", 0.0),
                entry.get("steps_per_sec", 0.0),
                entry.get("speedup", 0.0),
            )
        )
    lines += [
        "",
        "- floor: fast ≥ {:.1f}x over reference (gated in-run)".format(
            interp.get("min_speedup", MIN_INTERP_SPEEDUP),
        ),
        "- timing: best of {} interleaved round(s) after one warmup per "
        "engine".format(interp.get("repeats", INTERP_REPEATS)),
    ]
    if failures:
        lines += ["", "### Failures", ""]
        lines += ["- `{}`".format(failure) for failure in failures]
    else:
        lines += ["", "All gates green."]
    return "\n".join(lines) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.smoke", description="quick benchmark smoke run for CI"
    )
    parser.add_argument("--workloads", default=",".join(DEFAULT_WORKLOADS),
                        help="comma-separated workload names")
    parser.add_argument("--scope", default=DEFAULT_SCOPE)
    parser.add_argument("--jobs", type=int, default=4,
                        help="worker processes for the parallel pass")
    parser.add_argument("--output", metavar="FILE",
                        help="write the full JSON report here")
    parser.add_argument("--baseline", metavar="FILE",
                        help="committed baseline to compare against")
    parser.add_argument("--check", action="store_true",
                        help="fail on >{:.0f}%% regression vs --baseline".format(
                            REGRESSION_THRESHOLD * 100))
    parser.add_argument("--gate-wall-time", action="store_true",
                        help="also gate host wall time (off by default: "
                        "baselines do not transfer across machines)")
    parser.add_argument("--write-baseline", metavar="FILE",
                        help="write the deterministic baseline subset here")
    parser.add_argument("--trace-out", metavar="FILE",
                        help="write the instrumented pass's Chrome trace here")
    parser.add_argument("--metrics-out", metavar="FILE",
                        help="write the instrumented pass's metrics JSON here")
    parser.add_argument("--repeat", type=int, default=INTERP_REPEATS,
                        metavar="N",
                        help="timed interpreter rounds per engine; each "
                        "engine's wall is the best of N interleaved runs "
                        "after an untimed warmup (default {})".format(
                            INTERP_REPEATS))
    parser.add_argument("--summary-out", metavar="FILE",
                        help="append a Markdown summary table here "
                        "(point at $GITHUB_STEP_SUMMARY in CI)")
    args = parser.parse_args(argv)
    if args.check and not args.baseline:
        parser.error("--check needs --baseline FILE to compare against")

    names = [part.strip() for part in args.workloads.split(",") if part.strip()]
    report, failures = run_smoke(
        names, scope=args.scope, jobs=args.jobs,
        trace_out=args.trace_out, metrics_out=args.metrics_out,
        repeats=max(1, args.repeat),
    )

    if args.output:
        with open(args.output, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote", args.output)
    if args.write_baseline:
        with open(args.write_baseline, "w") as handle:
            json.dump(baseline_view(report), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote", args.write_baseline)

    if args.check:
        with open(args.baseline) as handle:
            baseline = json.load(handle)
        failures.extend(check(report, baseline, gate_wall_time=args.gate_wall_time))

    if args.summary_out:
        # Append (not truncate): $GITHUB_STEP_SUMMARY may already hold
        # earlier steps' sections.
        with open(args.summary_out, "a") as handle:
            handle.write(step_summary(report, failures))
        print("appended summary to", args.summary_out)

    print(
        "smoke: {} workload(s), scope {}, {:.2f}s serial / {:.2f}s with "
        "{} jobs (x{:.2f}), warm cache {:.0f}% hits, "
        "observability x{:.3f} when enabled".format(
            len(names),
            args.scope,
            report["build"]["serial_wall_s"],
            report["build"]["parallel_wall_s"],
            report["build"]["jobs"],
            report["build"]["speedup"],
            report["cache"]["warm_hit_rate"] * 100,
            report["observability"]["overhead_ratio"],
        )
    )
    print(
        "interp: fast engine mean speedup x{:.2f} over reference "
        "(floor x{:.1f}; {} plans compiled, {} cache hits)".format(
            report["interp"]["mean_speedup"],
            report["interp"]["min_speedup"],
            report["interp"]["plans_compiled"],
            report["interp"]["plan_cache_hits"],
        )
    )
    for failure in failures:
        print("FAIL:", failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
