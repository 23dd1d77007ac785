"""Canonical metric names, in one place.

Every dotted metric name the registry ever sees is declared here as a
constant; emitters (``collect_*`` in :mod:`repro.obs.metrics`, the
toolchain, the resilience guard) and readers (``repro.obs.validate``,
``repro.bench.smoke``, tests) import the same constant, so a producer
and its consumer cannot drift apart by typo.

Naming scheme: ``<subsystem>.<fact>``, all lowercase, underscores
inside a segment, dots only between segments.
"""

from __future__ import annotations

# -- build-time (collect_build_metrics) --------------------------------
CACHE_HITS = "cache.hits"
CACHE_MISSES = "cache.misses"
CACHE_INVALIDATIONS = "cache.invalidations"
CACHE_ENABLED = "cache.enabled"
CACHE_HIT_RATE = "cache.hit_rate"
CACHE_EVICTIONS_SIZE = "cache.evictions_size"  # disk objects LRU-evicted

BUILD_MODULES_COMPILED = "build.modules_compiled"
BUILD_MODULES_FROM_CACHE = "build.modules_from_cache"
BUILD_PARALLEL_JOBS = "build.parallel_jobs"
BUILD_PARALLEL_FALLBACKS = "build.parallel_fallbacks"
BUILD_COMPILE_TIMEOUTS = "build.compile_timeouts"
BUILD_WORKER_ERRORS = "build.worker_errors"
BUILD_WARNINGS = "build.warnings"
BUILD_COMPILE_UNITS = "build.compile_units"
BUILD_CODE_SIZE_INSTRS = "build.code_size_instrs"
BUILD_TRAIN_STEPS = "build.train_steps"
BUILD_TRAIN_RUNS = "build.train_runs"
BUILD_ANNOTATED_BLOCKS = "build.annotated_blocks"
BUILD_WALL_SECONDS = "build.wall_seconds"
BUILD_WALL_S_HIST = "build.wall_s"  # histogram: per-build wall samples

HLO_INLINES = "hlo.inlines"
HLO_CLONES = "hlo.clones"
HLO_CLONE_REPLACEMENTS = "hlo.clone_replacements"
HLO_DELETIONS = "hlo.deletions"
HLO_PROMOTIONS = "hlo.promotions"
HLO_DEVIRTUALIZED = "hlo.devirtualized"
HLO_OUTLINES = "hlo.outlines"
HLO_CLONE_DB_HITS = "hlo.clone_db_hits"
HLO_SITES_CONSIDERED = "hlo.sites_considered"
HLO_PASSES_RUN = "hlo.passes_run"
HLO_INITIAL_COST = "hlo.initial_cost"
HLO_FINAL_COST = "hlo.final_cost"
HLO_BUDGET_LIMIT = "hlo.budget_limit"
HLO_REGIONS_FORMED = "hlo.regions_formed"
HLO_REGION_BUDGET_EXHAUSTED = "hlo.region_budget_exhausted"

ANALYSIS_HITS = "analysis.hits"
ANALYSIS_MISSES = "analysis.misses"
ANALYSIS_INVALIDATIONS = "analysis.invalidations"

RESILIENCE_MODULE_FALLBACKS = "resilience.module_fallbacks"
RESILIENCE_PROFILE_FALLBACK = "resilience.profile_fallback"
RESILIENCE_PASS_FAILURES = "resilience.pass_failures"
RESILIENCE_QUARANTINED_PASSES = "resilience.quarantined_passes"
RESILIENCE_ROLLBACKS = "resilience.rollbacks"

# -- profile database quality (collect_profile_metrics) ----------------
PROFILE_SAMPLED = "profile.sampled"
PROFILE_RUNS = "profile.runs"
PROFILE_STEPS = "profile.steps"
PROFILE_BLOCKS = "profile.blocks"
PROFILE_SITES = "profile.sites"
PROFILE_CONFIDENCE = "profile.confidence"
PROFILE_SAMPLE_RATE = "profile.sample_rate"
PROFILE_SAMPLES = "profile.samples"
PROFILE_EVENTS = "profile.events"
PROFILE_CONTEXT_DEPTH = "profile.context_depth"
PROFILE_CONTEXTS = "profile.contexts"
PROFILE_COVERAGE = "profile.coverage"
PROFILE_MATCH_RATIO = "profile.match_ratio"

# -- interpreter (collect_interp_metrics) ------------------------------
INTERP_ENGINE = "interp.engine"
INTERP_STEPS = "interp.steps"
INTERP_PLANS_COMPILED = "interp.plans_compiled"
INTERP_PLAN_CACHE_HITS = "interp.plan_cache_hits"
INTERP_STEPS_PER_SEC = "interp.steps_per_sec"

# -- guest runtime profiler (collect_runtime_metrics) ------------------
RUNTIME_SAMPLES = "runtime.samples"
RUNTIME_EVENTS = "runtime.events"
RUNTIME_SAMPLE_RATE = "runtime.sample_rate"
RUNTIME_CONTEXTS = "runtime.contexts"
RUNTIME_FRAMES = "runtime.frames"
RUNTIME_CALL_EDGES = "runtime.call_edges"
RUNTIME_MAX_STACK_DEPTH = "runtime.max_stack_depth"

#: Every canonical name declared above.
ALL_NAMES = tuple(
    sorted(
        value
        for key, value in list(globals().items())
        if key.isupper() and key != "ALL_NAMES" and isinstance(value, str)
    )
)
