"""Central metrics: counters, gauges, and p50/p95 histograms.

Before this module existed every subsystem kept its own ad-hoc tallies
— :class:`~repro.linker.toolchain.BuildDiagnostics` counted cache and
worker outcomes, :class:`~repro.core.report.HLOReport` counted
transforms, the module cache and analysis manager each kept private
hit/miss counters — and the stderr summary line re-derived numbers the
bench harness derived separately, which is exactly how the two drift.

:class:`MetricsRegistry` is the one sink.  Subsystems keep their cheap
local counters (they are part of rollback protocols and picklable
build results); :func:`collect_build_metrics` maps them onto canonical
metric names once, and **both** the human summary line
(:func:`format_build_summary`) and the machine outputs (``--metrics-out``
JSON, ``BENCH_smoke.json``) read from the same registry.

Metric names are dotted: ``hlo.*`` transform counts, ``analysis.*``
memoization, ``cache.*`` incremental compilation, ``resilience.*``
degradations, ``build.*`` whole-build facts, ``profile.*`` the
profile database feeding the build (collection mode, confidence,
coverage, staleness), ``obs.*`` the observability layer's own
accounting.  Histograms (timings, sizes) report count/sum/min/max/mean
plus p50 and p95.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from . import names

METRICS_SCHEMA_VERSION = 1


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (not assumed sorted)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1)))))
    return ordered[rank]


class Histogram:
    """A value distribution summarized as count/sum/min/max/p50/p95."""

    __slots__ = ("values",)

    def __init__(self) -> None:
        self.values: List[float] = []

    def observe(self, value: float) -> None:
        self.values.append(float(value))

    def summary(self) -> dict:
        if not self.values:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0, "p50": 0.0, "p95": 0.0}
        total = sum(self.values)
        return {
            "count": len(self.values),
            "sum": round(total, 6),
            "min": round(min(self.values), 6),
            "max": round(max(self.values), 6),
            "mean": round(total / len(self.values), 6),
            "p50": round(percentile(self.values, 0.50), 6),
            "p95": round(percentile(self.values, 0.95), 6),
        }


class MetricsRegistry:
    """Named counters, gauges, and histograms for one build."""

    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def count(self, name: str, delta: float = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + delta

    def gauge(self, name: str, value: float) -> None:
        self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram()
        hist.observe(value)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def value(self, name: str, default: float = 0) -> float:
        """The counter or gauge named ``name``."""
        if name in self._counters:
            return self._counters[name]
        return self._gauges.get(name, default)

    def histogram(self, name: str) -> Optional[Histogram]:
        return self._histograms.get(name)

    def names(self) -> List[str]:
        return sorted(
            set(self._counters) | set(self._gauges) | set(self._histograms)
        )

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": METRICS_SCHEMA_VERSION,
            "counters": {k: self._counters[k] for k in sorted(self._counters)},
            "gauges": {k: self._gauges[k] for k in sorted(self._gauges)},
            "histograms": {
                k: self._histograms[k].summary()
                for k in sorted(self._histograms)
            },
        }

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")


class NullMetrics:
    """API-compatible registry that records nothing (disabled path)."""

    enabled = False

    def count(self, name: str, delta: float = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def value(self, name: str, default: float = 0) -> float:
        return default

    def histogram(self, name: str) -> None:
        return None

    def names(self) -> List[str]:
        return []

    def to_dict(self) -> dict:
        return {"schema": METRICS_SCHEMA_VERSION, "counters": {},
                "gauges": {}, "histograms": {}}


NULL_METRICS = NullMetrics()


def collect_build_metrics(
    diagnostics=None,
    report=None,
    stats=None,
    registry: Optional[MetricsRegistry] = None,
) -> MetricsRegistry:
    """Map every subsystem's counters onto the canonical metric names.

    This is the *single* definition of how build numbers are derived;
    the stderr summary line and every JSON output call through here.
    ``diagnostics`` is a BuildDiagnostics, ``report`` an HLOReport,
    ``stats`` a BuildStats — any may be ``None``.
    """
    reg = registry if registry is not None else MetricsRegistry()
    if diagnostics is not None:
        reg.count(names.CACHE_HITS, diagnostics.cache_hits)
        reg.count(names.CACHE_MISSES, diagnostics.cache_misses)
        reg.count(names.CACHE_INVALIDATIONS, diagnostics.cache_invalidations)
        reg.count(names.CACHE_EVICTIONS_SIZE, diagnostics.cache_size_evictions)
        reg.gauge(names.CACHE_ENABLED, 1 if diagnostics.cache_enabled else 0)
        reg.gauge(names.CACHE_HIT_RATE, round(diagnostics.cache_hit_rate, 4))
        reg.count(names.BUILD_MODULES_COMPILED, diagnostics.modules_compiled)
        reg.count(names.BUILD_MODULES_FROM_CACHE, diagnostics.modules_from_cache)
        reg.gauge(names.BUILD_PARALLEL_JOBS, diagnostics.parallel_jobs)
        reg.count(
            names.BUILD_PARALLEL_FALLBACKS, len(diagnostics.parallel_fallbacks)
        )
        reg.count(names.BUILD_COMPILE_TIMEOUTS, diagnostics.compile_timeouts)
        reg.count(names.BUILD_WORKER_ERRORS, len(diagnostics.worker_errors))
        reg.count(names.BUILD_WARNINGS, len(diagnostics.warnings))
        reg.count(
            names.RESILIENCE_MODULE_FALLBACKS, len(diagnostics.module_fallbacks)
        )
        reg.gauge(
            names.RESILIENCE_PROFILE_FALLBACK,
            1 if diagnostics.profile_fallback else 0,
        )
    if report is not None:
        reg.count(names.HLO_INLINES, report.inlines)
        reg.count(names.HLO_CLONES, report.clones)
        reg.count(names.HLO_CLONE_REPLACEMENTS, report.clone_replacements)
        reg.count(names.HLO_DELETIONS, report.deletions)
        reg.count(names.HLO_PROMOTIONS, report.promotions)
        reg.count(names.HLO_DEVIRTUALIZED, report.devirtualized)
        reg.count(names.HLO_OUTLINES, report.outlines)
        reg.count(names.HLO_CLONE_DB_HITS, report.clone_db_hits)
        reg.count(names.HLO_SITES_CONSIDERED, report.sites_considered)
        reg.gauge(names.HLO_PASSES_RUN, report.passes_run)
        reg.count(names.HLO_REGIONS_FORMED, report.regions_formed)
        reg.count(
            names.HLO_REGION_BUDGET_EXHAUSTED, report.region_budget_exhausted
        )
        reg.gauge(names.HLO_INITIAL_COST, report.initial_cost)
        reg.gauge(names.HLO_FINAL_COST, report.final_cost)
        reg.gauge(names.HLO_BUDGET_LIMIT, report.budget_limit)
        reg.count(names.RESILIENCE_PASS_FAILURES, len(report.pass_failures))
        reg.count(
            names.RESILIENCE_QUARANTINED_PASSES, len(report.quarantined_passes)
        )
        reg.count(names.ANALYSIS_HITS, report.analysis_hits)
        reg.count(names.ANALYSIS_MISSES, report.analysis_misses)
        reg.count(names.ANALYSIS_INVALIDATIONS, report.analysis_invalidations)
    if stats is not None:
        reg.gauge(names.BUILD_COMPILE_UNITS, stats.compile_units)
        reg.gauge(names.BUILD_CODE_SIZE_INSTRS, stats.code_size_instrs)
        reg.gauge(names.BUILD_TRAIN_STEPS, stats.train_steps)
        reg.gauge(names.BUILD_TRAIN_RUNS, stats.train_runs)
        reg.gauge(names.BUILD_ANNOTATED_BLOCKS, stats.annotated_blocks)
        reg.gauge(names.BUILD_WALL_SECONDS, round(stats.wall_seconds, 6))
    return reg


def collect_profile_metrics(
    profile,
    program=None,
    registry: Optional[MetricsRegistry] = None,
) -> MetricsRegistry:
    """Map a profile database's quality onto canonical ``profile.*`` names.

    ``profile`` is a :class:`~repro.profile.ProfileDatabase` (duck-typed
    so this layer needs no import of the profile package); ``program``
    optionally adds the against-a-compile figures (coverage, staleness
    match ratio).  The same names feed ``--metrics-out`` JSON, the
    build summary, and ``BENCH_smoke.json``.
    """
    reg = registry if registry is not None else MetricsRegistry()
    reg.gauge(names.PROFILE_SAMPLED, 1 if profile.sampled else 0)
    reg.gauge(names.PROFILE_RUNS, profile.training_runs)
    reg.gauge(names.PROFILE_STEPS, profile.training_steps)
    reg.gauge(names.PROFILE_BLOCKS, len(profile.block_counts))
    reg.gauge(names.PROFILE_SITES, len(profile.site_counts))
    reg.gauge(names.PROFILE_CONFIDENCE, round(profile.overall_confidence(), 4))
    if profile.sampled:
        reg.gauge(names.PROFILE_SAMPLE_RATE, round(profile.sample_rate, 2))
        reg.gauge(names.PROFILE_SAMPLES, profile.sample_count)
        reg.gauge(names.PROFILE_EVENTS, profile.sampled_events)
        reg.gauge(names.PROFILE_CONTEXT_DEPTH, profile.context_depth)
        reg.gauge(
            names.PROFILE_CONTEXTS,
            sum(len(per) for per in profile.context_counts.values()),
        )
    if program is not None:
        reg.gauge(names.PROFILE_COVERAGE, round(profile.coverage(program), 4))
        reg.gauge(
            names.PROFILE_MATCH_RATIO, round(profile.match_ratio(program), 4)
        )
    return reg


def collect_interp_metrics(
    interp,
    steps_per_sec: Optional[float] = None,
    registry: Optional[MetricsRegistry] = None,
) -> MetricsRegistry:
    """Map one interpreter's execution onto canonical ``interp.*`` names.

    ``interp`` is a :class:`~repro.interp.Interpreter` that has finished
    at least one ``run()`` (duck-typed: ``engine``, ``steps``,
    ``plans_compiled``, ``plan_cache_hits``).  ``steps_per_sec`` is the
    caller's wall-clock measurement — the registry never times anything
    itself.  The same names feed ``--metrics-out`` JSON and the
    ``interp`` section of ``BENCH_smoke.json``.
    """
    reg = registry if registry is not None else MetricsRegistry()
    reg.gauge(names.INTERP_ENGINE, interp.engine)
    reg.gauge(names.INTERP_STEPS, interp.steps)
    reg.gauge(names.INTERP_PLANS_COMPILED, interp.plans_compiled)
    reg.gauge(names.INTERP_PLAN_CACHE_HITS, interp.plan_cache_hits)
    if steps_per_sec is not None:
        reg.gauge(names.INTERP_STEPS_PER_SEC, round(steps_per_sec, 1))
    return reg


def collect_runtime_metrics(
    profiler,
    registry: Optional[MetricsRegistry] = None,
) -> MetricsRegistry:
    """Map one guest-profiling run onto canonical ``runtime.*`` names.

    ``profiler`` is a :class:`~repro.obs.runtime.RuntimeProfiler` that
    has finished at least one run.  Same rule as the other collectors:
    this is the single derivation both the ``repro profile flame``
    summary and ``--metrics-out`` JSON read from.
    """
    reg = registry if registry is not None else MetricsRegistry()
    reg.gauge(names.RUNTIME_SAMPLES, profiler.samples)
    reg.gauge(names.RUNTIME_EVENTS, profiler.events)
    reg.gauge(names.RUNTIME_SAMPLE_RATE, round(profiler.effective_rate, 2))
    reg.gauge(names.RUNTIME_CONTEXTS, len(profiler.stack_samples))
    reg.gauge(
        names.RUNTIME_FRAMES,
        len({frame for stack in profiler.stack_samples for frame in stack}),
    )
    reg.gauge(names.RUNTIME_CALL_EDGES, len(profiler.call_edges))
    reg.gauge(names.RUNTIME_MAX_STACK_DEPTH, profiler.max_stack_depth)
    return reg


def format_build_summary(
    reg: MetricsRegistry,
    profile_reason: str = "",
    serial_fallback: bool = False,
) -> str:
    """The one-line build summary, read from the registry.

    Free-text context (the profile degradation reason, whether the
    worker pool fell back) rides alongside because a registry holds
    numbers, not prose.
    """
    line = (
        "resilience: {:.0f} pass failures, {:.0f} passes quarantined, "
        "{:.0f} modules fell back, profile: {}".format(
            reg.value(names.RESILIENCE_PASS_FAILURES),
            reg.value(names.RESILIENCE_QUARANTINED_PASSES),
            reg.value(names.RESILIENCE_MODULE_FALLBACKS),
            "static ({})".format(profile_reason) if profile_reason else "ok",
        )
    )
    if reg.value(names.CACHE_ENABLED):
        hits = reg.value(names.CACHE_HITS)
        lookups = hits + reg.value(names.CACHE_MISSES)
        line += ", cache: {:.0f}/{:.0f} hits ({:.0f}%)".format(
            hits, lookups, (hits / lookups * 100.0) if lookups else 0.0
        )
    jobs = reg.value(names.BUILD_PARALLEL_JOBS)
    if jobs > 1 or reg.value(names.BUILD_PARALLEL_FALLBACKS):
        line += ", jobs: {:.0f}{}".format(
            jobs, " (serial fallback)" if serial_fallback else ""
        )
    return line
