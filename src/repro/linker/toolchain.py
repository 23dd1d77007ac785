"""The compiler driver: Figure 1's two compile paths, end to end.

``Toolchain`` builds a multi-module minic program under one of the four
scope configurations Table 1 compares:

========  ============================  =======================
scope     inline/clone across modules?  profile feedback?
========  ============================  =======================
``base``  no (module at a time)         no
``c``     yes (isom / link-time path)   no
``p``     no                            yes (train, recompile)
``cp``    yes                           yes
========  ============================  =======================

Profile builds follow the paper's two-compile workflow: an
instrumenting compile, training run(s) on the training inputs, then a
compile annotated with the harvested database.  The front end is
deterministic, so the host compiles the sources once: training inserts
the probes into that program, runs every training input on it, and
strips the probes again, which leaves exactly the program a second
compile would produce.  Cross-module builds route every module through
the isom serialization (Section 2.1) before linking, so the link-time
HLO sees exactly what a real isom pipeline would.

"Compile time" is reported in deterministic *cost units*: the quadratic
back-end model (Σ size²) summed over every compile the paper's
workflow performs, plus a charge for the training run — so a ``p``
build is more expensive to compile than ``base`` even when it
transforms less, matching the paper's observation that profile
compiles cost the extra instrumenting compile and training run.  The
model charges the instrumenting compile although the host skips the
second front-end pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.budget import program_cost
from ..core.config import HLOConfig
from ..core.hlo import run_hlo
from ..core.report import HLOReport
from ..frontend.driver import SourceList, compile_program
from ..interp.interpreter import DEFAULT_ENGINE, DEFAULT_MAX_STEPS, run_program
from ..ir.program import Program
from ..ir.verifier import VerifyError
from ..machine.metrics import MachineMetrics
from ..machine.pa8000 import MachineConfig, simulate
from ..obs import NULL_OBSERVER
from ..obs import names
from ..obs.metrics import (
    collect_build_metrics,
    collect_profile_metrics,
    format_build_summary,
)
from ..profile.annotate import annotate_program
from ..profile.database import ProfileDatabase
from ..profile.instrument import instrument_program, strip_probes
from ..resilience.errors import IsomError, ProfileFormatError, StrictModeError
from ..resilience.faults import FaultInjector
from ..sampling.lifecycle import MIN_PROFILE_CONFIDENCE
from .isom import from_isom_text, to_isom_text
from .linker import link_modules

SCOPES = ("base", "c", "p", "cp")

# One interpreted training step costs this many compile-time units
# (training runs are cheap relative to the quadratic back end, but not
# free — the paper folds them into the profile-compile times).
TRAIN_STEP_UNITS = 0.05

InputVector = Sequence[Union[int, float]]


@dataclass
class BuildStats:
    """Table 1's compile-side columns, plus code-size accounting.

    ``compile_units`` is the deterministic cost-model proxy the
    experiments report; ``wall_seconds`` is the actual time this build
    took on the host, for informal comparison with the paper's compile
    seconds (it is *not* used in any benchmark assertion).
    """

    scope: str
    compile_units: float
    train_steps: int
    train_runs: int
    code_size_instrs: int
    annotated_blocks: int = 0
    wall_seconds: float = 0.0


@dataclass
class BuildDiagnostics:
    """What the degradation ladder did during one build.

    Every entry is a *recovered* failure: the build finished, but at a
    lower rung — a module compiled module-at-a-time because its isom
    was bad, or static frequency estimates stood in for a bad profile.
    ``--strict`` turns any of these into a hard error instead.

    The build-performance counters (docs/performance.md) ride along:
    incremental-cache hits/misses/invalidations, how many modules were
    actually recompiled vs. served from cache, and whether the parallel
    worker pool had to fall back to serial compilation.  A serial
    fallback is a warning, not a degradation — the output is identical,
    only slower to produce.
    """

    module_fallbacks: List[str] = field(default_factory=list)
    profile_fallback: str = ""  # reason text; empty = profile path healthy
    warnings: List[str] = field(default_factory=list)

    # Incremental-cache counters for this build (cache_enabled gates
    # whether the summary line reports them).
    cache_enabled: bool = False
    cache_hits: int = 0
    cache_misses: int = 0
    cache_invalidations: int = 0
    cache_size_evictions: int = 0  # disk objects LRU-evicted by the bound
    modules_compiled: int = 0
    modules_from_cache: int = 0

    # Parallel-compilation accounting.
    parallel_jobs: int = 1
    parallel_fallbacks: List[str] = field(default_factory=list)
    compile_timeouts: int = 0  # modules abandoned by the compile watchdog
    worker_errors: List[str] = field(default_factory=list)  # exception classes

    def warn(self, message: str) -> None:
        self.warnings.append(message)

    def record_cache(self, hits: int, misses: int, invalidations: int) -> None:
        self.cache_enabled = True
        self.cache_hits += hits
        self.cache_misses += misses
        self.cache_invalidations += invalidations

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return (self.cache_hits / total) if total else 0.0

    @property
    def degraded(self) -> bool:
        return bool(self.module_fallbacks or self.profile_fallback)

    def metrics(self, report: Optional[HLOReport] = None,
                stats: Optional["BuildStats"] = None):
        """This build's counters on the canonical metric names.

        One derivation (``repro.obs.metrics.collect_build_metrics``)
        feeds both the stderr summary line and every JSON output, so
        the two can no longer drift.
        """
        return collect_build_metrics(diagnostics=self, report=report, stats=stats)

    def summary(self, report: Optional[HLOReport] = None) -> str:
        """The one-line build-output summary (from the metrics registry)."""
        return format_build_summary(
            self.metrics(report),
            profile_reason=self.profile_fallback,
            serial_fallback=bool(self.parallel_fallbacks),
        )


@dataclass
class BuildResult:
    """A finished executable plus everything measured while building it."""

    program: Program
    report: HLOReport
    stats: BuildStats
    profile: Optional[ProfileDatabase] = None
    diagnostics: BuildDiagnostics = field(default_factory=BuildDiagnostics)
    engine: str = DEFAULT_ENGINE

    @property
    def degraded(self) -> bool:
        """True when any recovery path fired during this build."""
        return self.diagnostics.degraded or self.report.degraded

    def run(
        self,
        inputs: InputVector = (),
        machine: Optional[MachineConfig] = None,
        max_steps: int = DEFAULT_MAX_STEPS,
    ) -> Tuple[MachineMetrics, "object"]:
        """Execute on the machine model; returns (metrics, interp result)."""
        return simulate(
            self.program, inputs, config=machine, max_steps=max_steps,
            engine=self.engine,
        )


def scope_flags(scope: str) -> Tuple[bool, bool]:
    """(cross_module, use_profile) for a Table 1 scope name."""
    if scope not in SCOPES:
        raise ValueError("unknown scope {!r}; expected one of {}".format(scope, SCOPES))
    return scope in ("c", "cp"), scope in ("p", "cp")


class Toolchain:
    """Compiles one program's sources under the four scope configs.

    ``strict`` turns every degradation (bad isom, bad profile, pass
    rollback) into a hard :class:`StrictModeError`/exception; the
    default is to degrade gracefully and record what happened on
    :class:`BuildDiagnostics`.  ``fault_injector`` is the test harness
    hook — it corrupts serialized isom/profile text at exactly the
    points real corruption would enter the pipeline, and substitutes
    sabotaged scalar passes.

    Training is the paper's instrumenting compile plus one run per
    training input, each capped at ``DEFAULT_MAX_STEPS``; it probes the
    build's one front-end compile in place and strips the probes after
    the runs.  A sampled profile (:func:`repro.sampling.sample_train`)
    enters through :meth:`rebuild_with_profile` instead, and falls back
    to static estimates when its confidence is below
    ``MIN_PROFILE_CONFIDENCE``.
    """

    def __init__(
        self,
        sources: SourceList,
        train_inputs: Sequence[InputVector] = (),
        config: Optional[HLOConfig] = None,
        strict: bool = False,
        fault_injector: Optional[FaultInjector] = None,
        jobs: Optional[int] = None,
        cache_dir: Optional[str] = None,
        engine: str = DEFAULT_ENGINE,
        compile_timeout: Optional[float] = None,
        cache_max_mb: Optional[float] = None,
    ):
        if isinstance(sources, dict):
            self.sources: List[Tuple[str, str]] = list(sources.items())
        else:
            self.sources = list(sources)
        self.train_inputs = [list(v) for v in train_inputs]
        self.base_config = config or HLOConfig()
        self.strict = strict
        self.fault_injector = fault_injector
        # The parallel/incremental pipeline (docs/performance.md) is
        # opt-in: asking for a worker count or a cache switches the
        # front end over to repro.parallel.compile_sources, which
        # routes every module through its isom text so the output is
        # byte-identical for any --jobs value and any cache state.
        # With neither flag the legacy direct path runs, unchanged.
        self.jobs = jobs
        self.compile_timeout = compile_timeout
        self.cache = None
        if jobs is not None or cache_dir is not None:
            from ..parallel.cache import ModuleCache

            self.cache = ModuleCache(cache_dir, max_mb=cache_max_mb)
        # Which interpreter engine training runs (and BuildResult.run)
        # execute under; "reference" forces the un-pre-decoded loop.
        self.engine = engine
        self._profile_cache: Optional[Tuple[ProfileDatabase, float]] = None
        self._reload_cache: Optional[ProfileDatabase] = None

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------

    def build(
        self,
        scope: str = "cp",
        config: Optional[HLOConfig] = None,
        observer=None,
        profile_override: Optional[ProfileDatabase] = None,
    ) -> BuildResult:
        import time

        obs = observer if observer is not None else NULL_OBSERVER
        started = time.perf_counter()
        cross_module, use_profile = scope_flags(scope)
        cfg = (config or self.base_config).with_scope(cross_module, use_profile)
        if self.strict:
            cfg = cfg.with_strict()
        diagnostics = BuildDiagnostics()
        compile_units = 0.0
        train = use_profile and profile_override is None

        with obs.tracer.span("build", scope=scope) as build_span:
            if train and not self.train_inputs:
                raise ValueError(
                    "scope {!r} needs training inputs for the PGO pipeline".format(scope)
                )
            # The build's one front-end compile: training probes this
            # program in place and strips the probes again.
            with obs.tracer.span("frontend", cat="frontend"):
                program = self._frontend(cfg, diagnostics, obs)
            # Training's fingerprints and the isom writer both print the
            # program as the front end made it (training strips its
            # probes again), so one print per procedure serves both.
            printed: Dict[str, str] = {}
            profile: Optional[ProfileDatabase] = None
            if use_profile and profile_override is not None:
                # An externally collected profile (a sampled one, say)
                # replaces the training phase outright; it still takes
                # the same text round-trip and confidence/staleness
                # rungs a trained profile would.
                with obs.tracer.span("profile-override", cat="pgo"):
                    profile = self._reload_profile(
                        profile_override, diagnostics, cacheable=False
                    )
            elif train:
                with obs.tracer.span("train", cat="pgo"):
                    profile, train_units = self._train(program, printed)
                    compile_units += train_units
                    profile = self._reload_profile(profile, diagnostics)
            if profile is not None and profile.sampled:
                # Low-confidence rung (a sampled profile only arrives as
                # a profile_override): too few samples landed to trust
                # the estimates; static frequency analysis beats
                # amplified sampling noise.
                confidence = profile.overall_confidence()
                if confidence < MIN_PROFILE_CONFIDENCE:
                    self._degrade_profile(
                        diagnostics,
                        "low-confidence sampled profile: confidence "
                        "{:.2f} below minimum {:.2f}".format(
                            confidence, MIN_PROFILE_CONFIDENCE
                        ),
                    )
                    obs.tracer.instant(
                        "profile-low-confidence", cat="resilience"
                    )
                    profile = None

            # The final compile: for cross-module scopes the isom round
            # trip and link, then HLO.
            if cross_module:
                with obs.tracer.span("isom-roundtrip", cat="linker"):
                    modules, fallbacks = self._isom_roundtrip(program, printed)
                    program = link_modules(modules)
                if fallbacks:
                    diagnostics.module_fallbacks.extend(fallbacks)
                    for name in fallbacks:
                        diagnostics.warn(
                            "isom for module {!r} unusable; "
                            "compiling it module-at-a-time".format(name)
                        )
                        obs.tracer.instant(
                            "isom-fallback:{}".format(name), cat="resilience"
                        )
                    cfg = cfg.with_local_modules(fallbacks)

            annotated = 0
            site_counts = None
            context_counts = None
            if profile is not None:
                annotated = annotate_program(program, profile)
                if annotated == 0 and not profile.is_empty():
                    # Every recorded key missed: the profile was trained
                    # against different sources.  Stale feedback is worse
                    # than none — fall back to static estimation.
                    self._degrade_profile(
                        diagnostics,
                        "stale profile: no recorded block matches this program",
                    )
                    profile = None
                else:
                    site_counts = profile.site_counts
                    context_counts = profile.context_view()
            if profile is not None and obs.metrics.enabled:
                # Against the pre-HLO program: coverage/staleness of
                # the feedback as the optimizer actually received it.
                collect_profile_metrics(profile, program, registry=obs.metrics)

            pipeline = None
            if self.fault_injector is not None:
                from ..opt.pass_manager import default_pipeline

                pipeline = self.fault_injector.wrap_pipeline(default_pipeline())

            ledger_mark = obs.ledger.mark()
            with obs.tracer.span("hlo", cat="hlo"):
                try:
                    report = run_hlo(
                        program, cfg, site_counts=site_counts, pipeline=pipeline,
                        observer=obs, context_counts=context_counts,
                    )
                except VerifyError as exc:
                    # Unless strict, the guard contains every pass and
                    # stage failure, so this is HLO's exit verify: a pass
                    # corrupted the IR unchecked.  A build that already
                    # verifies each pass has nothing finer to retry with.
                    if cfg.strict or cfg.verify_each_pass:
                        raise
                    obs.ledger.rollback_to(ledger_mark)
                    obs.tracer.instant("exit-verify-rebuild", cat="resilience")
                    return self._rebuild_verifying_each_pass(
                        scope, config, observer, profile_override, exc
                    )
            compile_units += report.final_cost
            build_span.add(compile_units=round(compile_units, 2))

        trained = self._profile_cache[0] if self._profile_cache else None
        if profile_override is not None:
            trained = profile_override
        stats = BuildStats(
            scope=scope,
            compile_units=compile_units,
            train_steps=trained.training_steps if use_profile and trained else 0,
            train_runs=trained.training_runs if use_profile and trained else 0,
            code_size_instrs=program.size(),
            annotated_blocks=annotated,
            wall_seconds=time.perf_counter() - started,
        )
        if obs.metrics.enabled:
            collect_build_metrics(diagnostics, report, stats,
                                  registry=obs.metrics)
            obs.metrics.observe(names.BUILD_WALL_S_HIST, stats.wall_seconds)
        return BuildResult(
            program, report, stats, profile, diagnostics, engine=self.engine
        )

    def _rebuild_verifying_each_pass(
        self,
        scope: str,
        config: Optional[HLOConfig],
        observer,
        profile_override: Optional[ProfileDatabase],
        error: VerifyError,
    ) -> BuildResult:
        """Build once more, verifying every pass, after the exit verify failed.

        Without per-pass verification a pass that corrupts the IR runs
        unnoticed until HLO's exit verify rejects the program.  The
        rebuild catches it at the application that corrupted, rolls that
        application back, and the build degrades instead of dying.  It
        starts from a fresh front end; training stays cached.  Only a
        build whose exit verify failed pays for it.  Such a build may
        also have replayed the corrupting pass when a guarded call rolled
        back (:mod:`repro.resilience.guard`); the rebuild replaces it.
        """
        checked = replace(config or self.base_config, verify_each_pass=True)
        result = self.build(scope, checked, observer, profile_override)
        first = str(error).splitlines()[0] if str(error) else repr(error)
        result.diagnostics.warn(
            "HLO exit verify failed ({}); rebuilt verifying each pass".format(first)
        )
        return result

    def build_all_scopes(
        self, config: Optional[HLOConfig] = None, observer=None
    ) -> Dict[str, BuildResult]:
        """All four Table 1 rows for this program."""
        return {scope: self.build(scope, config, observer) for scope in SCOPES}

    def rebuild_with_profile(
        self,
        profile: ProfileDatabase,
        scope: str = "cp",
        config: Optional[HLOConfig] = None,
        observer=None,
    ) -> BuildResult:
        """A profile-scope build fed an externally collected database.

        The sampled-PGO entry point: no training run happens (the
        profile was collected elsewhere); the profile takes the standard
        text round-trip, confidence rung, and staleness fallback on its
        way into the HLO, so a corrupt or degenerate merge degrades
        exactly like a corrupt trained profile would instead of
        poisoning the build.
        """
        cross_module, use_profile = scope_flags(scope)
        if not use_profile:
            raise ValueError(
                "rebuild_with_profile needs a profile scope ('p' or 'cp'), "
                "got {!r}".format(scope)
            )
        return self.build(
            scope, config=config, observer=observer, profile_override=profile
        )

    # ------------------------------------------------------------------
    # PGO pipeline pieces
    # ------------------------------------------------------------------

    def _frontend(
        self,
        cfg: Optional[HLOConfig] = None,
        diagnostics: Optional[BuildDiagnostics] = None,
        observer=None,
    ) -> Program:
        if self.cache is None:
            return compile_program(self.sources)

        from ..parallel.executor import compile_sources

        jobs = max(1, self.jobs if self.jobs is not None else 1)
        profile = self._profile_cache[0] if self._profile_cache else None
        warn = diagnostics.warn if diagnostics is not None else None
        mark = self.cache.stats.snapshot()
        evict_mark = self.cache.stats.size_evictions
        program, stats = compile_sources(
            self.sources,
            jobs=jobs,
            cache=self.cache,
            fingerprint=cfg.fingerprint() if cfg is not None else "",
            profile=profile,
            warn=warn,
            observer=observer if observer is not None else NULL_OBSERVER,
            timeout=self.compile_timeout,
        )
        if diagnostics is not None:
            diagnostics.parallel_jobs = max(diagnostics.parallel_jobs, stats.jobs)
            diagnostics.modules_compiled += stats.compiled
            diagnostics.modules_from_cache += stats.from_cache
            diagnostics.compile_timeouts += stats.compile_timeouts
            diagnostics.worker_errors.extend(stats.worker_errors)
            if stats.serial_fallback:
                diagnostics.parallel_fallbacks.append(
                    stats.fallback_reason or "worker pool unavailable"
                )
            hits, misses, invalidations, _stores = self.cache.stats.since(mark)
            diagnostics.record_cache(hits, misses, invalidations)
            diagnostics.cache_size_evictions += (
                self.cache.stats.size_evictions - evict_mark
            )
        return program

    # ------------------------------------------------------------------
    # Degradation ladder (docs/resilience.md)
    # ------------------------------------------------------------------

    def _isom_roundtrip(self, program: Program, printed: Dict[str, str]):
        """Route every module through isom text, degrading per module.

        A module whose isom is truncated, corrupted, or version-skewed
        falls back to its direct front-end compile (module-at-a-time:
        the returned fallback list feeds ``HLOConfig.local_modules`` so
        no transform crosses its boundary), instead of failing the
        whole link.  ``printed`` holds the procedure texts this build
        already printed (:func:`~repro.ir.printer.print_proc_once`).
        """
        modules = []
        fallbacks: List[str] = []
        for mod in program.modules.values():
            text = to_isom_text(mod, printed)
            if self.fault_injector is not None:
                text = self.fault_injector.corrupt_isom(text, mod.name)
            try:
                modules.append(from_isom_text(text))
            except IsomError as exc:
                if self.strict:
                    raise StrictModeError(
                        "isom for module {!r} unusable under --strict: {}".format(
                            mod.name, exc
                        )
                    ) from exc
                fallbacks.append(mod.name)
                modules.append(mod)  # the direct front-end compile
        return modules, fallbacks

    def _reload_profile(
        self,
        profile: ProfileDatabase,
        diagnostics: BuildDiagnostics,
        cacheable: bool = True,
    ) -> Optional[ProfileDatabase]:
        """Round-trip the profile through its on-disk text form.

        The real pipeline keeps the database on disk between the
        training and final compiles; routing the in-memory build
        through ``to_text``/``from_text`` keeps both paths identical
        and gives corruption one well-defined place to strike.  A
        database that fails to parse degrades to static estimation.
        """
        if (
            cacheable
            and self.fault_injector is None
            and self._reload_cache is not None
        ):
            return self._reload_cache
        text = profile.to_text()
        if self.fault_injector is not None:
            text = self.fault_injector.corrupt_profile(text)
        try:
            reloaded = ProfileDatabase.from_text(text)
            if cacheable and self.fault_injector is None:
                self._reload_cache = reloaded
            return reloaded
        except ProfileFormatError as exc:
            self._degrade_profile(
                diagnostics, "profile database unusable: {}".format(exc)
            )
            return None

    def _degrade_profile(self, diagnostics: BuildDiagnostics, reason: str) -> None:
        if self.strict:
            raise StrictModeError(reason)
        diagnostics.profile_fallback = reason
        diagnostics.warn(reason + "; using static frequency estimates")

    def _train(
        self,
        program: Optional[Program] = None,
        printed: Optional[Dict[str, str]] = None,
    ) -> Tuple[ProfileDatabase, float]:
        """Training-phase profile collection (cached per toolchain): the
        paper's instrumenting compile + training runs.

        The runs execute ``program`` (a fresh front-end compile when
        omitted) with probes inserted in place; the probes come out
        again before the database is merged, so ``program`` is left as
        the front end made it and the fingerprints describe it.  The
        fingerprints print each procedure once, into ``printed`` when
        given (:func:`~repro.ir.printer.print_proc_once`).
        """
        if self._profile_cache is not None:
            return self._profile_cache
        if program is None:
            program = self._frontend()
        probe_map = instrument_program(program)
        units = program_cost(program)  # one instrumenting compile
        results = [
            run_program(
                program, inputs, max_steps=DEFAULT_MAX_STEPS,
                engine=self.engine,
            )
            for inputs in self.train_inputs
        ]
        strip_probes(program)
        program.invalidate_plans()
        if printed is None:
            printed = {}
        db = ProfileDatabase()
        for result in results:
            db.merge_run(
                program, probe_map, result.probe_counts, result.steps, printed
            )
        units += db.training_steps * TRAIN_STEP_UNITS
        self._profile_cache = (db, units)
        return self._profile_cache
