"""Process-parallel module compilation with a deterministic merge.

``compile_sources`` is the parallel/incremental counterpart of
:func:`repro.frontend.driver.compile_program`.  It splits a program
into per-module compile jobs (frontend -> lower -> isom serialization),
consults the :class:`~repro.parallel.cache.ModuleCache` first, fans the
misses out over a ``ProcessPoolExecutor`` in heaviest-first order, and
then assembles the program **in the original source order**, so the
merged output is byte-for-byte independent of worker count and
completion order.

Every module in this pipeline — serial or parallel, cached or fresh —
is routed through its isom text before linking.  That single
normalization point is what makes ``--jobs 1`` and ``--jobs 4`` (and
cold vs. warm cache) produce identical programs: fresh-name counters
and other ephemeral front-end state never leak into the build.

Worker *infrastructure* failures (a broken pool, a killed worker, an
unpicklable result) degrade to serial in-process compilation with a
diagnostic — the build completes, just without the speedup.  Genuine
input errors (:class:`~repro.frontend.errors.CompileError`) propagate
exactly as they would from a serial build.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..frontend.driver import compile_module, link_check
from ..frontend.errors import CompileError
from ..ir.module import Module
from ..ir.program import Program
from ..ir.verifier import verify_program
from ..obs import NULL_OBSERVER
from ..obs.tracer import worker_span
from ..resilience.errors import IsomError
from .cache import ModuleCache
from .scheduler import heaviest_first

SourceList = Union[Dict[str, str], Sequence[Tuple[str, str]]]

# Exceptions that indicate bad *input* rather than broken machinery;
# these propagate instead of triggering the serial fallback.
_INPUT_ERRORS = (CompileError, IsomError, ValueError)


@dataclass
class MapOutcome:
    """How one ``parallel_map`` call went (beyond its results)."""

    fell_back: bool = False
    timeouts: int = 0  # items abandoned to the serial retry by the watchdog
    errors: List[str] = field(default_factory=list)  # exception class names

    def __bool__(self) -> bool:  # truthy exactly when the pool degraded
        return self.fell_back


@dataclass
class CompileStats:
    """What the parallel/incremental pipeline did for one compile."""

    jobs: int = 1
    compiled: int = 0  # modules actually (re)compiled
    from_cache: int = 0  # modules served from the cache
    serial_fallback: bool = False
    fallback_reason: str = ""
    compile_timeouts: int = 0  # modules the watchdog gave up waiting for
    worker_errors: List[str] = field(default_factory=list)


def default_jobs() -> int:
    """A sensible worker count for this host."""
    return max(1, os.cpu_count() or 1)


def _compile_to_isom(pair: Tuple[str, str]) -> Tuple[str, str]:
    """Worker body: one module's frontend compile, serialized to isom."""
    from ..linker.isom import to_isom_text

    name, source = pair
    return name, to_isom_text(compile_module(source, name))


def _compile_to_isom_traced(pair: Tuple[str, str]):
    """Worker body under tracing: same compile, plus a span record.

    The span is timed with wall-clock (``time.time``), not the worker's
    ``perf_counter`` — perf_counter epochs differ per process, so wall
    time is the only clock the parent can place on its own timeline
    (see :func:`repro.obs.tracer.worker_span`).
    """
    import time

    name, _source = pair
    start = time.time()
    result = _compile_to_isom(pair)
    span = worker_span(
        "module:{}".format(name), start, time.time(), os.getpid(),
        cat="frontend", args={"module": name},
    )
    return result[0], result[1], span


def parallel_map(
    func: Callable,
    items: Sequence,
    jobs: int = 1,
    warn: Optional[Callable[[str], None]] = None,
    timeout: Optional[float] = None,
) -> Tuple[list, MapOutcome]:
    """Apply ``func`` across ``items``, results in input order.

    Returns ``(results, outcome)``.  With ``jobs <= 1`` or a single
    item this is a plain serial map.  Infrastructure failures retry the
    incomplete items serially in-process; exceptions raised *by the
    function* propagate unchanged (re-raised by the serial retry when
    the pool machinery obscured them).

    ``timeout`` is a per-module watchdog: seconds of *no progress* (no
    future completing) before the pool is declared stuck and the
    incomplete items are retried serially.  It is deliberately not a
    per-future deadline measured from submission — with fewer workers
    than items, a module queued behind others would trip such a clock
    without ever having run.  The watchdog re-arms on every completion,
    so it bounds the slowest in-flight compile, which is what a hung
    worker actually looks like.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [func(item) for item in items], MapOutcome()

    outcome = MapOutcome()
    results: Dict[int, object] = {}
    try:
        executor = ProcessPoolExecutor(max_workers=min(jobs, len(items)))
        try:
            futures = {
                executor.submit(func, item): index for index, item in enumerate(items)
            }
            pending = set(futures)
            while pending:
                done, pending = wait(
                    pending, timeout=timeout, return_when=FIRST_COMPLETED
                )
                if not done:  # watchdog expired with nothing finishing
                    outcome.timeouts = len(pending)
                    break
                for future in done:
                    results[futures[future]] = future.result()
        finally:
            # Never block on a stuck worker: leave it to die with the
            # process group, cancel what never started.
            executor.shutdown(wait=not outcome.timeouts, cancel_futures=True)
    except _INPUT_ERRORS:
        raise
    except Exception as exc:  # pool breakage, pickling, OS limits, ...
        outcome.errors.append(type(exc).__name__)
        if warn is not None:
            warn(
                "parallel workers unavailable ({}: {}); "
                "compiling serially".format(type(exc).__name__, exc)
            )
        outcome.fell_back = True
    if outcome.timeouts:
        if warn is not None:
            warn(
                "parallel compile stalled ({} module(s) exceeded the "
                "{:.1f}s watchdog); compiling serially".format(
                    outcome.timeouts, timeout
                )
            )
        outcome.fell_back = True
    if outcome.fell_back:
        for index, item in enumerate(items):
            if index not in results:
                results[index] = func(item)
    return [results[index] for index in range(len(items))], outcome


def compile_sources(
    sources: SourceList,
    jobs: int = 1,
    cache: Optional[ModuleCache] = None,
    fingerprint: str = "",
    profile: Optional[object] = None,
    warn: Optional[Callable[[str], None]] = None,
    observer=NULL_OBSERVER,
    timeout: Optional[float] = None,
) -> Tuple[Program, CompileStats]:
    """Compile a multi-module program, in parallel and incrementally.

    ``fingerprint`` is the :meth:`HLOConfig.fingerprint` of the build
    configuration — part of every cache key, so a config change
    invalidates.  ``profile`` (a ProfileDatabase, when available)
    steers the heaviest-first schedule.

    With a tracing ``observer``, each worker times its own compile in
    wall-clock and ships the record back with its result; the parent
    absorbs them into the main timeline keyed by worker pid, so a
    ``--jobs 4`` trace shows four concurrent module rows.
    """
    if isinstance(sources, dict):
        pairs: List[Tuple[str, str]] = list(sources.items())
    else:
        pairs = list(sources)
    stats = CompileStats(jobs=max(1, jobs))

    modules: Dict[str, Module] = {}
    keys: Dict[str, str] = {}
    pending: List[Tuple[str, str]] = []
    for name, text in pairs:
        if cache is not None:
            key = cache.key_for(name, text, fingerprint)
            keys[name] = key
            cached = cache.fetch(name, key)
            if cached is not None:
                modules[name] = cached
                stats.from_cache += 1
                continue
        pending.append((name, text))

    if pending:
        from ..linker.isom import from_isom_text

        ordered = heaviest_first(pending, profile)
        traced = observer.tracer.enabled
        body = _compile_to_isom_traced if traced else _compile_to_isom
        compiled, outcome = parallel_map(
            body, ordered, jobs=jobs, warn=warn, timeout=timeout
        )
        stats.serial_fallback = outcome.fell_back
        stats.compile_timeouts = outcome.timeouts
        stats.worker_errors = list(outcome.errors)
        if outcome.fell_back:
            stats.fallback_reason = (
                "compile timeout" if outcome.timeouts else "worker pool unavailable"
            )
        spans = []
        for item in compiled:
            if traced:
                name, isom_text, span = item
                spans.append(span)
                observer.metrics.observe(
                    "frontend.module_compile_s", span["end"] - span["start"]
                )
            else:
                name, isom_text = item
            modules[name] = from_isom_text(isom_text)
            stats.compiled += 1
            if cache is not None:
                cache.store(name, keys[name], isom_text)
        if spans:
            observer.tracer.absorb_worker_spans(spans)

    # Deterministic merge: original source order, not completion order.
    program = Program()
    for name, _text in pairs:
        program.add_module(modules[name])
    link_check(program)
    verify_program(program)
    return program, stats
