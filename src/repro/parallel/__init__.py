"""Parallel + incremental compilation: the build-latency subsystem.

Three cooperating pieces (docs/performance.md):

- :mod:`repro.parallel.executor` — per-module compile jobs fanned out
  over a process pool, merged deterministically;
- :mod:`repro.parallel.cache` — a content-addressed store of compiled
  isoms keyed on (source, config fingerprint, format version);
- :mod:`repro.parallel.scheduler` — profile-weight-aware job ordering
  (heaviest modules first).
"""

from .cache import CACHE_FORMAT_VERSION, CacheStats, ModuleCache
from .executor import (
    CompileStats,
    MapOutcome,
    compile_sources,
    default_jobs,
    parallel_map,
)
from .scheduler import heaviest_first, module_weights

__all__ = [
    "CACHE_FORMAT_VERSION",
    "CacheStats",
    "CompileStats",
    "MapOutcome",
    "ModuleCache",
    "compile_sources",
    "default_jobs",
    "heaviest_first",
    "module_weights",
    "parallel_map",
]
