"""Command-line driver: the ``cc``-like front door to the toolchain.

Subcommands:

``compile``
    Compile minic source files; print the optimized IR or write isom
    files (the intermediate-code object files of Section 2.1).
``run``
    Compile and execute, optionally on the PA8000 machine model.
``train``
    The instrumenting compile + training run; writes a profile database.
    ``--sample-rate N`` switches collection to the sampling profiler.
``report``
    Run HLO at a chosen scope and print the transform report.
``bench``
    Compare the four Table 1 scope configurations on a suite workload.
``profile``
    Lifecycle management for profile databases: ``sample`` (collect a
    sampled, context-sensitive profile), ``merge`` (weighted / decayed
    multi-run combination), ``report`` (coverage, confidence,
    staleness), ``check`` (health gate with per-procedure staleness and
    optional salvage remapping), ``flame`` (run once with the runtime
    profiler attached and write a guest flamegraph).
``fleet``
    The continuous-profiling fleet loop: ``run`` (collect / rebuild /
    canary / hot-swap under an optional fault plan, optionally sending
    rebuilds to a ``--build-server`` daemon) and ``explain`` (same loop
    with the fleet decision ledger on — why every shard was ACKed,
    NACKed, or quarantined, and what each round decided).
``serve``
    The long-running build daemon (docs/serving.md): one warm
    toolchain — module cache, worker pool, finished-build LRU — behind
    a CRC32-framed JSON socket protocol, with in-flight dedupe,
    bounded-queue load shedding, and drain on SIGTERM.
``bench-serve``
    Load-generate a daemon with hundreds of concurrent clients and
    gate latency percentiles, dedupe, and artifact byte-identity
    (``repro.bench.serve``).

Module names come from file stems; inputs are comma-separated integers.

    python -m repro run prog.mc --inputs 5,10 --simulate
    python -m repro train prog.mc --inputs 5 -o prog.profdb
    python -m repro report prog.mc --scope cp --profile prog.profdb
    python -m repro profile sample prog.mc --inputs 5 -o prog.profdb
    python -m repro profile check prog.profdb prog.mc
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence, Tuple

from .core.config import HLOConfig
from .core.hlo import run_hlo
from .frontend.driver import compile_program
from .interp.interpreter import DEFAULT_ENGINE, ENGINES, run_program
from .ir.printer import print_program
from .linker.isom import write_isom
from .linker.toolchain import SCOPES, BuildDiagnostics, Toolchain, scope_flags
from .machine.pa8000 import simulate
from .obs import (
    NULL_OBSERVER,
    BuildObserver,
    CliLogger,
    FleetLedger,
    InliningLedger,
    MetricsRegistry,
    RuntimeProfiler,
    Tracer,
    VERBOSITY_LEVELS,
)
from .obs.metrics import collect_build_metrics, collect_runtime_metrics
from .obs.runtime import DEFAULT_FLAME_RATE
from .profile.annotate import annotate_program
from .profile.database import ProfileDatabase
from .profile.pgo import train
from .resilience.errors import ProfileFormatError
from .sampling import (
    DEFAULT_CONTEXT_DEPTH,
    DEFAULT_MIN_MATCH,
    DEFAULT_SAMPLE_RATE,
    MIN_PROFILE_CONFIDENCE,
    assess_staleness,
    format_quality_report,
    merge_profiles,
    quality_report,
    remap_database,
    sample_train,
)


def _read_sources(paths: Sequence[str]) -> List[Tuple[str, str]]:
    sources = []
    for path in paths:
        name = os.path.splitext(os.path.basename(path))[0]
        with open(path) as handle:
            sources.append((name, handle.read()))
    return sources


def _parse_inputs(text: Optional[str]) -> List[int]:
    if not text:
        return []
    return [int(part) for part in text.split(",") if part.strip()]


def _config_from_args(args: argparse.Namespace) -> HLOConfig:
    config = HLOConfig(
        budget_percent=args.budget,
        pass_limit=args.passes,
        enable_outlining=getattr(args, "outline", False),
        strict=getattr(args, "strict", False),
        verify_each_pass=getattr(args, "verify_each_pass", False),
        strategy=getattr(args, "strategy", "global"),
    )
    if getattr(args, "no_inline", False):
        config = config.clone_only()
    if getattr(args, "no_clone", False):
        config = config.inline_only() if not getattr(args, "no_inline", False) else config.neither()
    return config


def _logger_from_args(args: argparse.Namespace) -> CliLogger:
    return CliLogger(getattr(args, "verbosity", "normal"))


def _observer_from_args(args: argparse.Namespace) -> BuildObserver:
    """Build the observability bundle the flags ask for.

    Each sink is live only when requested, so an un-flagged run keeps
    the :data:`NULL_OBSERVER` fast path end to end.
    """
    want_trace = bool(getattr(args, "trace_out", None))
    # --series-out forces the metrics registry live: the series bank
    # rides inside it and is sampled only when metrics are enabled.
    want_metrics = bool(
        getattr(args, "metrics_out", None) or getattr(args, "series_out", None)
    )
    want_ledger = bool(
        getattr(args, "explain_inlining", False)
        or getattr(args, "explain_inlining_out", None)
    )
    want_fleet = bool(getattr(args, "fleet_ledger_out", None))
    if not (want_trace or want_metrics or want_ledger or want_fleet):
        return NULL_OBSERVER
    return BuildObserver(
        tracer=Tracer() if want_trace else None,
        metrics=MetricsRegistry() if want_metrics else None,
        ledger=InliningLedger() if want_ledger else None,
        fleet=FleetLedger() if want_fleet else None,
    )


def _emit_observability(
    args: argparse.Namespace, obs: BuildObserver, log: CliLogger
) -> None:
    """Write out whatever sinks the flags requested."""
    trace_out = getattr(args, "trace_out", None)
    if trace_out and obs.tracer.enabled:
        obs.tracer.write(trace_out)
        log.debug("wrote trace ({} events) to {}".format(
            len(obs.tracer.events()), trace_out))
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out and obs.metrics.enabled:
        obs.metrics.write(metrics_out)
        log.debug("wrote metrics ({} series) to {}".format(
            len(obs.metrics.names()), metrics_out))
    ledger_out = getattr(args, "explain_inlining_out", None)
    if ledger_out and obs.ledger.enabled:
        obs.ledger.write_jsonl(ledger_out)
        log.debug("wrote inlining ledger ({} decisions) to {}".format(
            obs.ledger.considered, ledger_out))
    if getattr(args, "explain_inlining", False) and obs.ledger.enabled:
        print(obs.ledger.format_text())
    series_out = getattr(args, "series_out", None)
    if series_out and obs.metrics.enabled:
        obs.metrics.series.write_jsonl(series_out)
        log.debug("wrote time series ({} series) to {}".format(
            len(obs.metrics.series), series_out))
    fleet_ledger_out = getattr(args, "fleet_ledger_out", None)
    if fleet_ledger_out and obs.fleet.enabled:
        obs.fleet.write_jsonl(fleet_ledger_out)
        log.debug("wrote fleet ledger ({} entries) to {}".format(
            obs.fleet.total, fleet_ledger_out))


def _compile_cli(
    args: argparse.Namespace, diagnostics: BuildDiagnostics,
    obs: BuildObserver = NULL_OBSERVER,
):
    """Compile ``args.files``, honoring ``--jobs`` / ``--cache-dir``.

    Without either flag this is the legacy direct front-end path.  With
    either, the parallel/incremental pipeline runs instead: per-module
    compiles fan out over worker processes, unchanged modules come from
    the content-addressed cache, and every module routes through isom
    text so the output is identical for any worker count.
    """
    sources = _read_sources(args.files)
    jobs = getattr(args, "jobs", None)
    cache_dir = getattr(args, "cache_dir", None)
    if jobs is None and cache_dir is None:
        with obs.tracer.span("frontend", cat="frontend"):
            return compile_program(sources)

    from .parallel.cache import ModuleCache
    from .parallel.executor import compile_sources

    cross, use_profile = scope_flags(args.scope)
    cfg = _config_from_args(args).with_scope(cross, use_profile)
    cache = ModuleCache(cache_dir, max_mb=getattr(args, "cache_max_mb", None))
    mark = cache.stats.snapshot()
    with obs.tracer.span("frontend", cat="frontend"):
        program, stats = compile_sources(
            sources,
            jobs=max(1, jobs if jobs is not None else 1),
            cache=cache,
            fingerprint=cfg.fingerprint(),
            warn=diagnostics.warn,
            observer=obs,
            timeout=getattr(args, "compile_timeout", None),
        )
    hits, misses, invalidations, _stores = cache.stats.since(mark)
    diagnostics.record_cache(hits, misses, invalidations)
    diagnostics.cache_size_evictions += cache.stats.size_evictions
    diagnostics.parallel_jobs = stats.jobs
    diagnostics.modules_compiled += stats.compiled
    diagnostics.modules_from_cache += stats.from_cache
    diagnostics.compile_timeouts += stats.compile_timeouts
    diagnostics.worker_errors.extend(stats.worker_errors)
    if stats.serial_fallback:
        diagnostics.parallel_fallbacks.append(
            stats.fallback_reason or "worker pool unavailable"
        )
    return program


def _load_profile(
    args: argparse.Namespace, diagnostics: BuildDiagnostics
) -> Optional[ProfileDatabase]:
    """Load ``--profile``, degrading to static estimates on bad input.

    A corrupt, truncated, version-skewed, or missing database is a
    warning plus fallback — unless ``--strict``, which makes it fatal.
    """
    path = getattr(args, "profile", None)
    if not path:
        return None
    try:
        db = ProfileDatabase.load(path)
    except (ProfileFormatError, OSError) as exc:
        if getattr(args, "strict", False):
            raise SystemExit(
                "--strict: profile database {!r} unusable: {}".format(path, exc)
            )
        diagnostics.profile_fallback = str(exc)
        diagnostics.warn(
            "profile database {!r} unusable ({}); "
            "using static frequency estimates".format(path, exc)
        )
        return None
    if db.sampled:
        confidence = db.overall_confidence()
        if confidence < MIN_PROFILE_CONFIDENCE:
            # The low-confidence rung of the degradation ladder
            # (docs/resilience.md): thin sampled evidence is noise, and
            # static frequency estimation beats amplified noise.
            reason = (
                "low-confidence sampled profile {!r}: confidence {:.2f} "
                "below minimum {:.2f}".format(
                    path, confidence, MIN_PROFILE_CONFIDENCE
                )
            )
            if getattr(args, "strict", False):
                raise SystemExit("--strict: " + reason)
            diagnostics.profile_fallback = reason
            diagnostics.warn(reason + "; using static frequency estimates")
            return None
    return db


def _hlo_for_scope(
    program,
    args: argparse.Namespace,
    profile: Optional[ProfileDatabase],
    diagnostics: Optional[BuildDiagnostics] = None,
    obs: BuildObserver = NULL_OBSERVER,
):
    cross, use_profile = scope_flags(args.scope)
    config = _config_from_args(args).with_scope(cross, use_profile)
    site_counts = None
    context_counts = None
    if use_profile:
        if profile is None and not (diagnostics and diagnostics.profile_fallback):
            raise SystemExit(
                "scope {!r} needs --profile <db> (run `train` first)".format(args.scope)
            )
        if profile is not None:
            annotate_program(program, profile)
            site_counts = profile.site_counts
            context_counts = profile.context_view()
    with obs.tracer.span("hlo", cat="hlo"):
        return run_hlo(
            program, config, site_counts=site_counts, observer=obs,
            context_counts=context_counts,
        )


def _finish(
    args: argparse.Namespace,
    report,
    diagnostics: BuildDiagnostics,
    log: Optional[CliLogger] = None,
    obs: BuildObserver = NULL_OBSERVER,
) -> int:
    """Print warnings + the one-line degradation summary; pick exit code."""
    log = log if log is not None else _logger_from_args(args)
    for warning in diagnostics.warnings:
        log.warn(warning)
    degraded = diagnostics.degraded or (report is not None and report.degraded)
    if degraded or diagnostics.cache_enabled or diagnostics.parallel_jobs > 1:
        log.info(diagnostics.summary(report))
    if obs.metrics.enabled:
        collect_build_metrics(diagnostics, report, registry=obs.metrics)
    _emit_observability(args, obs, log)
    if degraded and getattr(args, "strict", False):
        return 1
    return 0


def cmd_compile(args: argparse.Namespace) -> int:
    diagnostics = BuildDiagnostics()
    obs = _observer_from_args(args)
    with obs.tracer.span("build", command="compile"):
        program = _compile_cli(args, diagnostics, obs)
        profile = _load_profile(args, diagnostics)
        report = None
        if not args.no_hlo:
            report = _hlo_for_scope(program, args, profile, diagnostics, obs)
    if args.isom_dir:
        for module in program.modules.values():
            path = write_isom(module, args.isom_dir)
            print("wrote", path)
    else:
        print(print_program(program))
    return _finish(args, report, diagnostics, obs=obs)


def cmd_run(args: argparse.Namespace) -> int:
    diagnostics = BuildDiagnostics()
    obs = _observer_from_args(args)
    log = _logger_from_args(args)
    with obs.tracer.span("build", command="run"):
        program = _compile_cli(args, diagnostics, obs)
        profile = _load_profile(args, diagnostics)
        report = None
        if not args.no_hlo:
            report = _hlo_for_scope(program, args, profile, diagnostics, obs)
    inputs = _parse_inputs(args.inputs)
    flame_out = getattr(args, "flame_out", None)
    profiler = None
    if flame_out:
        if args.simulate:
            # Both want to be the run's one event sink; refusing beats
            # silently profiling a different execution than asked for.
            raise SystemExit(
                "--flame-out and --simulate are mutually exclusive "
                "(each needs to be the run's event sink)"
            )
        profiler = RuntimeProfiler(
            rate=getattr(args, "flame_rate", DEFAULT_FLAME_RATE),
            seed=getattr(args, "flame_seed", 0),
        )
    with obs.tracer.span("execute", cat="machine", simulate=bool(args.simulate)):
        engine = getattr(args, "engine", DEFAULT_ENGINE)
        if args.simulate:
            metrics, result = simulate(program, inputs, engine=engine)
        else:
            metrics, result = None, run_program(
                program, inputs, sink=profiler, engine=engine
            )
    for value in result.output:
        print(value)
    if profiler is not None:
        fmt = profiler.write(flame_out)
        log.info(
            "# flame: {} samples / {} events, {} contexts -> {} ({})".format(
                profiler.samples, profiler.events,
                len(profiler.stack_samples), flame_out, fmt,
            )
        )
        if obs.metrics.enabled:
            collect_runtime_metrics(profiler, registry=obs.metrics)
    if metrics is not None:
        log.info(
            "# cycles={:.0f} instructions={} cpi={:.3f} "
            "icache_mr={:.4f} dcache_mr={:.4f} branch_mr={:.4f}".format(
                metrics.cycles,
                metrics.instructions,
                metrics.cpi,
                metrics.icache_miss_rate,
                metrics.dcache_miss_rate,
                metrics.branch_miss_rate,
            )
        )
    degraded_exit = _finish(args, report, diagnostics, log, obs)
    return degraded_exit or (result.exit_code & 0x7F)


def _collect_runs(inputs: Optional[Sequence[str]]) -> List[List[int]]:
    """Training vectors from any mix of repeated ``--inputs`` flags and
    ``;``-separated runs inside one flag; no flag means one empty run."""
    chunks: List[str] = []
    for entry in inputs or [""]:
        chunks.extend(entry.split(";"))
    return [_parse_inputs(chunk) for chunk in chunks]


def cmd_train(args: argparse.Namespace) -> int:
    sources = _read_sources(args.files)
    runs = _collect_runs(args.inputs)
    engine = getattr(args, "engine", DEFAULT_ENGINE)
    if args.sample_rate:
        db = sample_train(
            sources,
            runs,
            rate=args.sample_rate,
            context_depth=args.context_depth,
            seed=args.seed,
            engine=engine,
        )
        db.save(args.output)
        print(
            "sampled {} run(s), {} steps ({} samples, confidence {:.1%}); "
            "wrote {}".format(
                db.training_runs, db.training_steps, db.sample_count,
                db.overall_confidence(), args.output,
            )
        )
        return 0
    db = train(sources, runs, engine=engine)
    db.save(args.output)
    print(
        "trained {} run(s), {} steps; wrote {}".format(
            db.training_runs, db.training_steps, args.output
        )
    )
    return 0


def _load_profile_arg(path: str) -> ProfileDatabase:
    try:
        return ProfileDatabase.load(path)
    except (ProfileFormatError, OSError) as exc:
        raise SystemExit("profile database {!r} unusable: {}".format(path, exc))


def _profile_sources(args: argparse.Namespace, required: bool):
    """(sources, default training inputs) for a profile subcommand.

    Sources come from positional files or ``--workload NAME`` (the
    bench suite's programs — what CI uses so it needs no checked-in
    source files).
    """
    workload_name = getattr(args, "workload", None)
    if workload_name:
        from .workloads.suite import get_workload, workload_names

        try:
            workload = get_workload(workload_name)
        except KeyError:
            raise SystemExit(
                "unknown workload {!r}; available: {}".format(
                    workload_name, ", ".join(workload_names())
                )
            )
        return list(workload.sources), [list(t) for t in workload.train_inputs]
    if getattr(args, "files", None):
        return _read_sources(args.files), None
    if required:
        raise SystemExit("give minic source files or --workload NAME")
    return None, None


def cmd_profile_sample(args: argparse.Namespace) -> int:
    sources, default_runs = _profile_sources(args, required=True)
    runs = _collect_runs(args.inputs) if args.inputs else (default_runs or [[]])
    db = sample_train(
        sources,
        runs,
        rate=args.rate,
        context_depth=args.context_depth,
        seed=args.seed,
        engine=getattr(args, "engine", DEFAULT_ENGINE),
    )
    db.save(args.output)
    print(
        "sampled {} run(s): {} samples / {} events (rate 1/{:.0f}, k={}); "
        "confidence {:.1%}; wrote {}".format(
            db.training_runs, db.sample_count, db.sampled_events,
            db.sample_rate, db.context_depth, db.overall_confidence(),
            args.output,
        )
    )
    return 0


def cmd_profile_flame(args: argparse.Namespace) -> int:
    """Run once with the runtime profiler attached; write a flamegraph.

    The program is the plain front-end compile (no HLO): the
    flamegraph shows the guest's *logical* call structure, which
    inlining would flatten away.
    """
    workload_name = getattr(args, "workload", None)
    default_input: Optional[List[int]] = None
    if workload_name:
        from .workloads.suite import get_workload, workload_names

        try:
            workload = get_workload(workload_name)
        except KeyError:
            raise SystemExit(
                "unknown workload {!r}; available: {}".format(
                    workload_name, ", ".join(workload_names())
                )
            )
        sources = list(workload.sources)
        default_input = list(workload.ref_input)
    elif getattr(args, "files", None):
        sources = _read_sources(args.files)
    else:
        raise SystemExit("give minic source files or --workload NAME")
    inputs = (
        _parse_inputs(args.inputs) if args.inputs else (default_input or [])
    )
    program = compile_program(sources)
    profiler = RuntimeProfiler(rate=args.rate, seed=args.seed)
    run_program(
        program, inputs, sink=profiler,
        engine=getattr(args, "engine", DEFAULT_ENGINE),
    )
    fmt = profiler.write(args.output)
    print(profiler.format_text(limit=args.top))
    print("wrote {} ({})".format(args.output, fmt))
    return 0


def cmd_profile_merge(args: argparse.Namespace) -> int:
    databases = [_load_profile_arg(path) for path in args.databases]
    weights = None
    if args.weights:
        try:
            weights = [float(part) for part in args.weights.split(",")]
        except ValueError:
            raise SystemExit("--weights must be comma-separated numbers")
        if len(weights) != len(databases):
            raise SystemExit(
                "--weights needs one weight per database "
                "({} given, {} databases)".format(len(weights), len(databases))
            )
    try:
        merged = merge_profiles(databases, weights=weights, decay=args.decay)
    except ValueError as exc:
        raise SystemExit(str(exc))
    merged.save(args.output)
    print(
        "merged {} database(s) -> {} blocks, {} run(s); wrote {}".format(
            len(databases), len(merged.block_counts), merged.training_runs,
            args.output,
        )
    )
    return 0


def cmd_profile_report(args: argparse.Namespace) -> int:
    db = _load_profile_arg(args.database)
    sources, _runs = _profile_sources(args, required=False)
    program = compile_program(sources) if sources is not None else None
    payload = quality_report(db, program)
    if args.json:
        import json

        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(format_quality_report(payload))
    return 0


def cmd_profile_check(args: argparse.Namespace) -> int:
    """Health-gate a database against the current sources; exit 1 when
    it should not feed a build (stale procedures or thin evidence)."""
    db = _load_profile_arg(args.database)
    sources, _runs = _profile_sources(args, required=True)
    program = compile_program(sources)
    payload = quality_report(db, program)
    if args.json:
        import json

        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(format_quality_report(payload))

    problems = []
    staleness = assess_staleness(db, program)
    if staleness.stale:
        # Fingerprint drift is a failure even when every recorded label
        # still resolves (a same-shape edit): the counts describe code
        # that no longer exists.  --remap salvages what still matches.
        problems.append(
            "stale procedure(s), fingerprint drift: "
            + ", ".join(sorted(staleness.stale))
        )
    if not staleness.healthy(args.min_match):
        offenders = [
            name
            for name, entry in sorted(staleness.procs.items())
            if entry.match_ratio < args.min_match
        ]
        problems.append(
            "stale procedures below match ratio {:.2f}: {}".format(
                args.min_match, ", ".join(offenders)
            )
        )
    if db.sampled and db.overall_confidence() < args.min_confidence:
        problems.append(
            "sampled confidence {:.2f} below minimum {:.2f}".format(
                db.overall_confidence(), args.min_confidence
            )
        )

    if args.remap:
        remapped, report = remap_database(db, program)
        remapped.save(args.remap)
        print(
            "remapped: kept {}/{} block counts "
            "({} fresh, {} stale, {} missing proc(s)); wrote {}".format(
                len(remapped.block_counts), len(db.block_counts),
                len(report.fresh), len(report.stale), len(report.missing),
                args.remap,
            )
        )

    if problems:
        for problem in problems:
            print("profile check: " + problem, file=sys.stderr)
        return 1
    print("profile check: OK")
    return 0


def _int_list(values) -> tuple:
    return tuple(int(v) for v in values or ())


def _fleet_loop_from_args(args: argparse.Namespace, obs: BuildObserver):
    """Build the :class:`FleetLoop` that ``fleet run`` / ``fleet
    explain`` share: same workload, fault plan, and config flags."""
    from .fleet import FleetConfig, FleetLoop
    from .resilience.faults import SHARD_FAULTS, FaultInjector
    from .workloads.suite import get_workload, workload_names

    try:
        workload = get_workload(args.workload)
    except KeyError:
        raise SystemExit(
            "unknown workload {!r}; available: {}".format(
                args.workload, ", ".join(workload_names())
            )
        )
    faults: Tuple[str, ...] = tuple(
        f for f in (args.faults.split(",") if args.faults else []) if f
    )
    if not faults and args.fault_rate > 0:
        faults = SHARD_FAULTS
    injector = None
    plan_active = bool(
        faults or args.wal_tail or args.kill_mid_swap
        or args.canary_trap or args.flap
    )
    if plan_active:
        try:
            injector = FaultInjector(
                seed=args.seed,
                shard_faults=faults,
                shard_fault_rate=args.fault_rate,
                wal_tail_rounds=_int_list(args.wal_tail),
                kill_mid_swap_epochs=_int_list(args.kill_mid_swap),
                canary_trap_epochs=_int_list(args.canary_trap),
                flap_sources=tuple(args.flap or ()),
            )
        except ValueError as exc:
            raise SystemExit(str(exc))
    config = FleetConfig(
        rounds=args.rounds,
        rate=args.rate,
        seed=args.seed,
        engine=getattr(args, "engine", DEFAULT_ENGINE),
        restart_collector_rounds=_int_list(args.restart_collector),
        max_wall_s=args.max_wall,
        build_server=getattr(args, "build_server", None),
    )
    return FleetLoop(
        list(workload.sources),
        [list(t) for t in workload.train_inputs],
        list(workload.ref_input),
        config=config,
        injector=injector,
        observer=obs,
        spool_path=args.spool,
    )


def cmd_fleet_run(args: argparse.Namespace) -> int:
    """Run the continuous-profiling fleet loop on a suite workload."""
    import json

    obs = _observer_from_args(args)
    log = _logger_from_args(args)
    loop = _fleet_loop_from_args(args, obs)
    report = loop.run()
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(
            "fleet: {} round(s), final build {}, swaps {}, "
            "rollbacks {} (quarantined epochs: {})".format(
                report.rounds_run, report.final_build, report.swaps,
                report.rollbacks,
                ", ".join(map(str, report.quarantined_epochs)) or "none",
            )
        )
        print(
            "fleet: shards sent {}, accepted {}, quarantined {}, "
            "retried {}, breaker opens {}".format(
                report.shards_sent, report.shards_accepted,
                report.shards_quarantined, report.shards_retried,
                report.breaker_opens,
            )
        )
        print(
            "fleet: wal appended {}, truncations {}, collector restarts {}, "
            "instance restarts {}".format(
                report.wal_appended, report.wal_truncations,
                report.collector_restarts, report.instance_restarts,
            )
        )
        for line in report.history:
            print("fleet: " + line)
        if report.convergence_jaccard is not None:
            print(
                "fleet: convergence jaccard {} "
                "({} exact vs {} fleet decisions)".format(
                    report.convergence_jaccard, report.exact_decisions,
                    report.fleet_decisions,
                )
            )
    _emit_observability(args, obs, log)
    if obs.fleet.enabled and not _fleet_ledger_complete(obs, report):
        return 1
    if args.assert_convergence and not report.converged:
        print(
            "fleet: convergence assertion failed (jaccard {})".format(
                report.convergence_jaccard
            ),
            file=sys.stderr,
        )
        return 1
    return 0


def _fleet_ledger_complete(obs: BuildObserver, report) -> bool:
    """Check the completeness invariant: every verdict the collector
    issued and every round the controller considered is in the ledger.
    The counts on the right come from the loop, tallied independently
    of the ledger appends."""
    ok = (
        obs.fleet.verdicts == report.collector_verdicts
        and obs.fleet.decisions == report.controller_decisions
    )
    if not ok:
        print(
            "fleet: ledger INCOMPLETE: {} verdict(s) ledgered vs {} "
            "issued; {} decision(s) ledgered vs {} rounds considered".format(
                obs.fleet.verdicts, report.collector_verdicts,
                obs.fleet.decisions, report.controller_decisions,
            ),
            file=sys.stderr,
        )
    return ok


def cmd_fleet_explain(args: argparse.Namespace) -> int:
    """Run the fleet loop with the decision ledger on and report it.

    Exits 1 unless the ledger accounts for 100% of collector verdicts
    and controller decisions (the completeness invariant CI gates on).
    """
    want_trace = bool(getattr(args, "trace_out", None))
    want_metrics = bool(
        getattr(args, "metrics_out", None) or getattr(args, "series_out", None)
    )
    # The whole point of `explain` is the fleet ledger: always live
    # here, whatever the other observability flags say.
    obs = BuildObserver(
        tracer=Tracer() if want_trace else None,
        metrics=MetricsRegistry() if want_metrics else None,
        fleet=FleetLedger(),
    )
    log = _logger_from_args(args)
    loop = _fleet_loop_from_args(args, obs)
    report = loop.run()
    ledger = obs.fleet
    if args.json:
        sys.stdout.write(ledger.to_jsonl())
    else:
        print(ledger.format_text(limit=args.limit))
        print(
            "completeness: {}/{} collector verdicts, {}/{} controller "
            "decisions ledgered".format(
                ledger.verdicts, report.collector_verdicts,
                ledger.decisions, report.controller_decisions,
            )
        )
    _emit_observability(args, obs, log)
    if not _fleet_ledger_complete(obs, report):
        return 1
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the long-lived build daemon until SIGTERM/SIGINT drains it.

    Exit codes: 0 after a clean drain (including one triggered by a
    ``shutdown`` request), 130 on an interrupt the event loop could not
    convert into a drain.
    """
    import asyncio
    import json

    from .serve.server import ReproServer
    from .serve.state import ServerState

    obs = _observer_from_args(args)
    log = _logger_from_args(args)
    state = ServerState(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        cache_max_mb=getattr(args, "cache_max_mb", None),
        engine=args.engine,
        compile_timeout=args.compile_timeout,
        observer=obs,
        results_capacity=args.results_capacity,
    )
    server = ReproServer(
        state,
        host=args.host,
        port=args.port,
        concurrency=args.concurrency,
        max_pending=args.max_pending,
        request_timeout=args.timeout,
        observer=obs,
    )

    async def _serve() -> dict:
        await server.start()
        server.install_signal_handlers()
        # The line CI (and any parent process) scrapes for the port.
        print(
            "repro serve listening on {}:{}".format(server.host, server.port),
            flush=True,
        )
        return await server.serve_until_shutdown()

    try:
        snapshot = asyncio.run(_serve())
    except KeyboardInterrupt:  # pragma: no cover - non-Unix loops only
        return 130
    log.info(
        "serve: drained after {} request(s) over {} connection(s) "
        "({} build(s), {} warm hit(s), {} deduped)".format(
            snapshot["requests"], snapshot["connections"],
            snapshot["state"]["builds"], snapshot["state"]["result_hits"],
            snapshot["scheduler"]["dedupe_hits"],
        )
    )
    if args.stats_out:
        with open(args.stats_out, "w") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=True)
            handle.write("\n")
        log.debug("wrote stats snapshot to {}".format(args.stats_out))
    _emit_observability(args, obs, log)
    return 0


def cmd_bench_serve(args: argparse.Namespace) -> int:
    from .bench.serve import main as serve_bench_main

    argv: List[str] = ["--clients", str(args.clients), "--scope", args.scope]
    if args.workloads:
        argv += ["--workloads", args.workloads]
    argv += ["--engine", getattr(args, "engine", DEFAULT_ENGINE)]
    if args.connect:
        argv += ["--connect", args.connect]
    if args.jobs is not None:
        argv += ["--jobs", str(args.jobs)]
    argv += ["--concurrency", str(args.concurrency)]
    argv += ["--max-pending", str(args.max_pending)]
    argv += ["--timeout", str(args.timeout)]
    if args.output:
        argv += ["--output", args.output]
    if args.json:
        argv.append("--json")
    return serve_bench_main(argv)


def cmd_bench_scale(args: argparse.Namespace) -> int:
    from .bench.scale import main as scale_main

    argv: List[str] = []
    for flag in ("small", "mega", "funcs_per_module", "window", "seed"):
        value = getattr(args, flag, None)
        if value is not None:
            argv += ["--" + flag.replace("_", "-"), str(value)]
    for flag in ("parity_workloads", "output", "summary_out"):
        value = getattr(args, flag, None)
        if value:
            argv += ["--" + flag.replace("_", "-"), value]
    return scale_main(argv)


def cmd_report(args: argparse.Namespace) -> int:
    diagnostics = BuildDiagnostics()
    obs = _observer_from_args(args)
    with obs.tracer.span("build", command="report"):
        program = _compile_cli(args, diagnostics, obs)
        profile = _load_profile(args, diagnostics)
        report = _hlo_for_scope(program, args, profile, diagnostics, obs)
    print(report)
    print("transform events:")
    for event in report.events:
        print(
            "  pass {} {:14s} @{} -> @{} (site {})".format(
                event.pass_number, event.kind, event.caller, event.callee, event.site_id
            )
        )
    if report.deleted_procs:
        print("deleted:", ", ".join(report.deleted_procs))
    if report.promoted_symbols:
        print("promoted:", ", ".join(report.promoted_symbols))
    if report.pass_failures:
        print("pass failures:")
        for failure in report.pass_failures:
            print("  " + str(failure))
    return _finish(args, report, diagnostics, obs=obs)


def cmd_bench(args: argparse.Namespace) -> int:
    from .bench.tables import format_table
    from .workloads.suite import get_workload, workload_names

    try:
        workload = get_workload(args.workload)
    except KeyError:
        raise SystemExit(
            "unknown workload {!r}; available: {}".format(
                args.workload, ", ".join(workload_names())
            )
        )
    toolchain = Toolchain(
        list(workload.sources),
        train_inputs=[list(t) for t in workload.train_inputs],
        strict=getattr(args, "strict", False),
        jobs=getattr(args, "jobs", None),
        cache_dir=getattr(args, "cache_dir", None),
        cache_max_mb=getattr(args, "cache_max_mb", None),
        engine=getattr(args, "engine", DEFAULT_ENGINE),
        compile_timeout=getattr(args, "compile_timeout", None),
    )
    config = _config_from_args(args)
    obs = _observer_from_args(args)
    log = _logger_from_args(args)
    rows = []
    degraded = False
    for scope in SCOPES:
        build = toolchain.build(scope, config, observer=obs)
        if build.degraded:
            degraded = True
            log.info("{}: {}".format(scope, build.diagnostics.summary(build.report)))
        with obs.tracer.span("execute", cat="machine", scope=scope):
            metrics, _run = build.run(workload.ref_input)
        rows.append(
            [
                scope,
                build.report.inlines,
                build.report.clones,
                build.report.clone_replacements,
                build.report.deletions,
                build.stats.compile_units,
                metrics.cycles,
            ]
        )
    print(
        format_table(
            ["scope", "inlines", "clones", "repls", "deletions",
             "compile_units", "run_cycles"],
            rows,
            title="{} ({})".format(workload.name, workload.spec_analog),
        )
    )
    _emit_observability(args, obs, log)
    return 1 if degraded and getattr(args, "strict", False) else 0


def build_parser() -> argparse.ArgumentParser:
    from .resilience.faults import SHARD_FAULTS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="HLO-style aggressive inlining/cloning toolchain "
        "(reproduction of PLDI '97).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_files=True):
        if needs_files:
            p.add_argument("files", nargs="+", help="minic source files")
        p.add_argument("--scope", choices=SCOPES, default="c",
                       help="optimization scope (Table 1 rows); default c")
        p.add_argument("--budget", type=float, default=100.0,
                       help="compile-time budget percent (default 100)")
        p.add_argument("--passes", type=int, default=4,
                       help="HLO pass limit (default 4)")
        p.add_argument("--strategy", choices=("global", "demand"),
                       default="global",
                       help="inlining strategy: 'global' is the paper's "
                       "whole-program multi-pass loop, 'demand' walks "
                       "only profile-hot regions under per-region "
                       "budgets (default global)")
        p.add_argument("--profile", help="profile database from `train`")
        p.add_argument("--no-inline", action="store_true")
        p.add_argument("--no-clone", action="store_true")
        p.add_argument("--outline", action="store_true",
                       help="enable aggressive outlining (Section 5)")
        p.add_argument("--strict", action="store_true",
                       help="turn graceful degradation into hard errors")
        p.add_argument("--verify-each-pass", action="store_true",
                       help="verify IR after every guarded pass (slower)")
        p.add_argument("--jobs", type=int, metavar="N",
                       help="compile modules with N worker processes "
                       "(output is identical for any N)")
        p.add_argument("--compile-timeout", type=float, metavar="S",
                       help="per-module compile watchdog in seconds; a "
                       "stalled worker pool degrades to serial compilation")
        p.add_argument("--cache-dir", metavar="DIR",
                       help="content-addressed incremental compile cache")
        p.add_argument("--cache-max-mb", type=float, metavar="MB",
                       help="bound the disk cache; least-recently-used "
                       "entries are evicted past this size")
        engine_flag(p)
        observability(p)

    def engine_flag(p):
        p.add_argument("--engine", choices=ENGINES, default=DEFAULT_ENGINE,
                       help="interpreter engine: 'fast' pre-decodes to "
                       "threaded code, 'reference' is the plain loop "
                       "(default {})".format(DEFAULT_ENGINE))

    def observability(p):
        p.add_argument("--trace-out", metavar="FILE",
                       help="write a Chrome trace-event JSON timeline "
                       "(load in Perfetto / chrome://tracing)")
        p.add_argument("--metrics-out", metavar="FILE",
                       help="write build counters/gauges/histograms as JSON")
        p.add_argument("--explain-inlining", action="store_true",
                       help="print every call-site decision HLO made "
                       "(inlined / cloned / rejected, with reasons)")
        p.add_argument("--explain-inlining-out", metavar="FILE",
                       help="write the inlining-decision ledger as JSONL")
        p.add_argument("--verbosity", choices=VERBOSITY_LEVELS,
                       default="normal",
                       help="stderr verbosity (default normal)")

    p_compile = sub.add_parser("compile", help="compile to IR or isoms")
    common(p_compile)
    p_compile.add_argument("--isom-dir", help="write one .isom per module here")
    p_compile.add_argument("--no-hlo", action="store_true",
                           help="front end only, skip HLO")
    p_compile.set_defaults(func=cmd_compile)

    p_run = sub.add_parser("run", help="compile and execute")
    common(p_run)
    p_run.add_argument("--inputs", help="comma-separated integer input vector")
    p_run.add_argument("--simulate", action="store_true",
                       help="run on the PA8000 machine model")
    p_run.add_argument("--no-hlo", action="store_true")
    p_run.add_argument("--flame-out", metavar="FILE",
                       help="profile the guest run and write a flamegraph "
                       "(.json -> speedscope, else collapsed stacks); "
                       "identical output on every --engine")
    p_run.add_argument("--flame-rate", type=int, default=DEFAULT_FLAME_RATE,
                       metavar="N",
                       help="stack sample every ~N guest instructions "
                       "(default {}; 1 = exact)".format(DEFAULT_FLAME_RATE))
    p_run.add_argument("--flame-seed", type=int, default=0,
                       help="sampling jitter seed (default 0)")
    p_run.set_defaults(func=cmd_run)

    p_train = sub.add_parser("train", help="instrument, run, write profile db")
    p_train.add_argument("files", nargs="+")
    p_train.add_argument("--inputs", action="append",
                         help="training inputs; ',' separates elements, "
                         "';' separates runs, and the flag may repeat "
                         "(one run per occurrence)")
    p_train.add_argument("--sample-rate", type=int, metavar="N",
                         help="collect by sampling every ~N interpreter "
                         "steps instead of instrumenting")
    p_train.add_argument("--context-depth", type=int,
                         default=DEFAULT_CONTEXT_DEPTH, metavar="K",
                         help="calling-context depth recorded per sample "
                         "(default {})".format(DEFAULT_CONTEXT_DEPTH))
    p_train.add_argument("--seed", type=int, default=0,
                         help="sampling jitter seed (default 0)")
    p_train.add_argument("-o", "--output", default="repro.profdb")
    p_train.add_argument("--strategy", choices=("global", "demand"),
                         default="global",
                         help="accepted for flag symmetry with compile/run "
                         "(training runs the unoptimized instrumented "
                         "program, so the strategy does not affect the "
                         "collected profile)")
    engine_flag(p_train)
    p_train.set_defaults(func=cmd_train)

    p_profile = sub.add_parser(
        "profile", help="profile lifecycle: sample, merge, report, check"
    )
    profile_sub = p_profile.add_subparsers(dest="profile_command", required=True)

    def profile_sources(p):
        p.add_argument("files", nargs="*", help="minic source files")
        p.add_argument("--workload",
                       help="use a bench-suite workload's sources instead "
                       "of source files")

    pp_sample = profile_sub.add_parser(
        "sample", help="collect a sampled, context-sensitive profile"
    )
    profile_sources(pp_sample)
    pp_sample.add_argument("--inputs", action="append",
                           help="training inputs (',' elements, ';' runs, "
                           "flag may repeat); --workload supplies its own "
                           "training set when omitted")
    pp_sample.add_argument("--rate", type=int, default=DEFAULT_SAMPLE_RATE,
                           metavar="N",
                           help="sample every ~N interpreter steps "
                           "(default {})".format(DEFAULT_SAMPLE_RATE))
    pp_sample.add_argument("--context-depth", type=int,
                           default=DEFAULT_CONTEXT_DEPTH, metavar="K",
                           help="calling-context depth per sample "
                           "(default {})".format(DEFAULT_CONTEXT_DEPTH))
    pp_sample.add_argument("--seed", type=int, default=0,
                           help="sampling jitter seed (default 0)")
    pp_sample.add_argument("-o", "--output", default="repro.profdb")
    engine_flag(pp_sample)
    pp_sample.set_defaults(func=cmd_profile_sample)

    pp_flame = profile_sub.add_parser(
        "flame", help="run once and write a guest flamegraph"
    )
    profile_sources(pp_flame)
    pp_flame.add_argument("--inputs",
                          help="comma-separated integer input vector; "
                          "--workload supplies its reference input "
                          "when omitted")
    pp_flame.add_argument("--rate", type=int, default=DEFAULT_FLAME_RATE,
                          metavar="N",
                          help="stack sample every ~N guest instructions "
                          "(default {}; 1 = exact)".format(DEFAULT_FLAME_RATE))
    pp_flame.add_argument("--seed", type=int, default=0,
                          help="sampling jitter seed (default 0)")
    pp_flame.add_argument("--top", type=int, default=10, metavar="K",
                          help="hottest contexts to print (default 10)")
    pp_flame.add_argument("-o", "--output", default="flame.json",
                          help="output path; .json -> speedscope JSON, "
                          "anything else collapsed stacks "
                          "(default flame.json)")
    engine_flag(pp_flame)
    pp_flame.set_defaults(func=cmd_profile_flame)

    pp_merge = profile_sub.add_parser(
        "merge", help="combine databases with explicit weights or decay"
    )
    pp_merge.add_argument("databases", nargs="+",
                          help="profile databases, oldest first")
    pp_merge.add_argument("--weights",
                          help="comma-separated weight per database")
    pp_merge.add_argument("--decay", type=float, metavar="D",
                          help="exponential aging: newest run weight 1.0, "
                          "each older run multiplied by D")
    pp_merge.add_argument("-o", "--output", default="merged.profdb")
    pp_merge.set_defaults(func=cmd_profile_merge)

    pp_report = profile_sub.add_parser(
        "report", help="coverage / confidence / staleness of a database"
    )
    pp_report.add_argument("database")
    profile_sources(pp_report)
    pp_report.add_argument("--json", action="store_true",
                           help="machine-readable output")
    pp_report.set_defaults(func=cmd_profile_report)

    pp_check = profile_sub.add_parser(
        "check", help="health-gate a database against current sources"
    )
    pp_check.add_argument("database")
    profile_sources(pp_check)
    pp_check.add_argument("--min-match", type=float, default=DEFAULT_MIN_MATCH,
                          help="per-procedure match-ratio floor "
                          "(default {})".format(DEFAULT_MIN_MATCH))
    pp_check.add_argument("--min-confidence", type=float,
                          default=MIN_PROFILE_CONFIDENCE,
                          help="sampled-confidence floor "
                          "(default {})".format(MIN_PROFILE_CONFIDENCE))
    pp_check.add_argument("--remap", metavar="FILE",
                          help="write a salvaged database (still-matching "
                          "counts remapped to the current sources) here")
    pp_check.add_argument("--json", action="store_true",
                          help="machine-readable output")
    pp_check.set_defaults(func=cmd_profile_check)

    p_report = sub.add_parser("report", help="print the HLO transform report")
    common(p_report)
    p_report.set_defaults(func=cmd_report)

    p_bench = sub.add_parser("bench", help="Table 1 walk on a suite workload")
    p_bench.add_argument("workload")
    p_bench.add_argument("--scope", choices=SCOPES, default="cp")
    p_bench.add_argument("--budget", type=float, default=400.0)
    p_bench.add_argument("--passes", type=int, default=4)
    p_bench.add_argument("--strategy", choices=("global", "demand"),
                         default="global",
                         help="inlining strategy (default global)")
    p_bench.add_argument("--no-inline", action="store_true")
    p_bench.add_argument("--no-clone", action="store_true")
    p_bench.add_argument("--outline", action="store_true")
    p_bench.add_argument("--strict", action="store_true",
                         help="turn graceful degradation into hard errors")
    p_bench.add_argument("--verify-each-pass", action="store_true")
    p_bench.add_argument("--jobs", type=int, metavar="N",
                         help="compile modules with N worker processes")
    p_bench.add_argument("--cache-dir", metavar="DIR",
                         help="content-addressed incremental compile cache")
    p_bench.add_argument("--cache-max-mb", type=float, metavar="MB",
                         help="bound the disk cache (LRU eviction)")
    engine_flag(p_bench)
    observability(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_scale = sub.add_parser(
        "bench-scale",
        help="compile-scaling bench: global vs demand strategy on "
        "generated mega-programs",
    )
    p_scale.add_argument("--small", type=int, metavar="N",
                         help="small-tier module count (default 40)")
    p_scale.add_argument("--mega", type=int, metavar="N",
                         help="mega-tier module count (default 1000)")
    p_scale.add_argument("--funcs-per-module", type=int, metavar="N")
    p_scale.add_argument("--window", type=int, metavar="K",
                         help="generator extern visibility window")
    p_scale.add_argument("--seed", type=int)
    p_scale.add_argument("--parity-workloads", metavar="NAMES",
                         help="comma-separated suite workloads for the "
                         "cycles-parity gate")
    p_scale.add_argument("--output", metavar="FILE",
                         help="write the scale report as JSON")
    p_scale.add_argument("--summary-out", metavar="FILE",
                         help="append a Markdown summary table "
                         "($GITHUB_STEP_SUMMARY in CI)")
    p_scale.set_defaults(func=cmd_bench_scale)

    p_serve = sub.add_parser(
        "serve",
        help="long-running build daemon: warm caches, in-flight dedupe, "
        "drain on SIGTERM",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=0,
                         help="listen port (default 0 = ephemeral; the "
                         "bound port is printed on startup)")
    p_serve.add_argument("--jobs", type=int, default=None, metavar="N",
                         help="compile worker processes kept warm "
                         "across requests")
    p_serve.add_argument("--cache-dir", metavar="DIR",
                         help="content-addressed incremental compile cache")
    p_serve.add_argument("--cache-max-mb", type=float, metavar="MB",
                         help="bound the disk cache (LRU eviction)")
    p_serve.add_argument("--concurrency", type=int, default=4, metavar="N",
                         help="requests built concurrently (default 4)")
    p_serve.add_argument("--max-pending", type=int, default=64, metavar="N",
                         help="queue bound; past it requests are shed "
                         "with a 'busy' reply (default 64)")
    p_serve.add_argument("--timeout", type=float, default=None, metavar="S",
                         help="default per-request deadline in seconds")
    p_serve.add_argument("--compile-timeout", type=float, metavar="S",
                         help="per-module compile watchdog in seconds")
    p_serve.add_argument("--results-capacity", type=int, default=32,
                         metavar="N",
                         help="finished builds kept warm in the result "
                         "LRU (default 32)")
    p_serve.add_argument("--stats-out", metavar="FILE",
                         help="write the final stats snapshot JSON after "
                         "the drain")
    p_serve.add_argument("--series-out", metavar="FILE",
                         help="write per-request time series (queue "
                         "depth, in-flight) as JSONL after the drain")
    engine_flag(p_serve)
    observability(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_bserve = sub.add_parser(
        "bench-serve",
        help="load-generate a build daemon (in-process, or a running "
        "`repro serve` via --connect) and gate its behaviour",
    )
    p_bserve.add_argument("--clients", type=int, default=200, metavar="N",
                          help="concurrent clients (default 200)")
    p_bserve.add_argument("--workloads", metavar="NAMES",
                          help="comma-separated workload names "
                          "(default: compress,sc)")
    p_bserve.add_argument("--scope", choices=SCOPES, default="c")
    p_bserve.add_argument("--connect", metavar="HOST:PORT",
                          help="drive a running daemon instead of an "
                          "in-process one")
    p_bserve.add_argument("--jobs", type=int, default=None, metavar="N",
                          help="compile workers for the in-process server")
    p_bserve.add_argument("--concurrency", type=int, default=4, metavar="N")
    p_bserve.add_argument("--max-pending", type=int, default=64, metavar="N")
    p_bserve.add_argument("--timeout", type=float, default=120.0, metavar="S")
    p_bserve.add_argument("--output", metavar="FILE",
                          help="write the report JSON here")
    p_bserve.add_argument("--json", action="store_true",
                          help="print the report as JSON")
    engine_flag(p_bserve)
    p_bserve.set_defaults(func=cmd_bench_serve)

    p_fleet = sub.add_parser(
        "fleet", help="continuous-profiling fleet loop"
    )
    fleet_sub = p_fleet.add_subparsers(dest="fleet_command", required=True)

    def fleet_common(p):
        """Flags `fleet run` and `fleet explain` share: the same loop,
        fault plan, and workload run under both."""
        p.add_argument("workload")
        p.add_argument("--rounds", type=int, default=8, metavar="N",
                       help="collection rounds to run (default 8)")
        p.add_argument("--rate", type=int, default=50, metavar="N",
                       help="sampling rate: one sample every ~N steps "
                       "(default 50)")
        p.add_argument("--seed", type=int, default=7,
                       help="fleet + fault-plan seed (default 7)")
        p.add_argument("--faults", metavar="F1,F2",
                       help="comma-separated transit faults to inject "
                       "({})".format(", ".join(SHARD_FAULTS)))
        p.add_argument("--fault-rate", type=float, default=0.0,
                       metavar="P",
                       help="per-shard transit fault probability "
                       "(default 0.0; >0 with no --faults injects all)")
        p.add_argument("--wal-tail", type=int, nargs="*", default=(),
                       metavar="ROUND",
                       help="rounds whose end tears the spool tail")
        p.add_argument("--kill-mid-swap", type=int, nargs="*", default=(),
                       metavar="EPOCH",
                       help="epochs whose swap is interrupted by a crash")
        p.add_argument("--canary-trap", type=int, nargs="*", default=(),
                       metavar="EPOCH",
                       help="epochs whose canary build traps")
        p.add_argument("--flap", nargs="*", default=(), metavar="SOURCE",
                       help="instance sources that flap (restart loop)")
        p.add_argument("--restart-collector", type=int, nargs="*",
                       default=(), metavar="ROUND",
                       help="rounds after which the collector restarts "
                       "and replays its journal")
        p.add_argument("--spool", metavar="FILE",
                       help="shard write-ahead spool path "
                       "(default: a fresh temp file)")
        p.add_argument("--max-wall", type=float, default=None, metavar="S",
                       help="wall-clock budget; the loop stops early "
                       "when exceeded")
        p.add_argument("--series-out", metavar="FILE",
                       help="write per-tick time series (drift, "
                       "confidence, jaccard-vs-exact, per-instance "
                       "queues) as JSONL")
        engine_flag(p)

    pf_run = fleet_sub.add_parser(
        "run",
        help="run the collect/rebuild/canary/hot-swap loop on a workload",
    )
    fleet_common(pf_run)
    pf_run.add_argument("--fleet-ledger-out", metavar="FILE",
                        help="write the fleet decision ledger (every "
                        "collector verdict and controller decision) as "
                        "JSONL; also enforces ledger completeness")
    pf_run.add_argument("--build-server", metavar="HOST:PORT",
                        help="send profile-fed rebuilds to a running "
                        "`repro serve` daemon (local fallback when it "
                        "is unreachable)")
    pf_run.add_argument("--assert-convergence", action="store_true",
                        help="exit 1 unless the loop converged to the "
                        "exact-profile decisions (jaccard 1.0)")
    pf_run.add_argument("--json", action="store_true",
                        help="print the full report as JSON")
    observability(pf_run)
    pf_run.set_defaults(func=cmd_fleet_run)

    pf_explain = fleet_sub.add_parser(
        "explain",
        help="run the loop with the decision ledger on; print why every "
        "shard was ACKed/NACKed/quarantined and what each round decided",
    )
    fleet_common(pf_explain)
    pf_explain.add_argument("--json", action="store_true",
                            help="print the ledger as JSONL instead of text")
    pf_explain.add_argument("--limit", type=int, default=None, metavar="N",
                            help="entries to print in text mode "
                            "(default: all)")
    pf_explain.add_argument("-o", "--out", dest="fleet_ledger_out",
                            metavar="FILE",
                            help="also write the ledger as JSONL here")
    observability(pf_explain)
    pf_explain.set_defaults(func=cmd_fleet_explain)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
