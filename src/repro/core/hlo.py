"""HLO driver: the multi-pass inline-and-clone loop (Figure 2).

    Inline_and_Clone(G):
        C = sum over routines of size(R)^2
        B = C * growth
        stage the budget across passes
        while C < B and passes remain:
            C = Clone(G, S[P], C, D)
            C = Inline(G, S[P], C)

Before the loop an input-stage cleanup runs on the reachable routines
(the paper performs classic optimizations at input "mainly to reduce
its size", plus the interprocedural side-effect analysis that deletes
no-op calls); after each pass unreachable routines are deleted ("the
clonee may become unreachable in the call graph and will be deleted");
after the loop the whole program is re-optimized.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..analysis.manager import AnalysisManager
from ..ir.instructions import ICall
from ..ir.program import Program
from ..ir.verifier import verify_program
from ..obs import NULL_OBSERVER
from ..opt.pass_manager import default_pipeline, optimize_program
from .budget import Budget
from .cloner import CloneDatabase, clone_pass
from .config import HLOConfig
from .inliner import inline_pass
from .report import HLOReport, PassTrace

SiteCounts = Dict[Tuple[str, int], int]


def run_hlo(
    program: Program,
    config: Optional[HLOConfig] = None,
    site_counts: Optional[SiteCounts] = None,
    verify: bool = True,
    pipeline: Optional[list] = None,
    observer=None,
    context_counts=None,
) -> HLOReport:
    """Run the full HLO pipeline over ``program`` in place.

    ``context_counts`` carries a context-sensitive profile's per-caller
    block counts (:meth:`~repro.profile.ProfileDatabase.context_view`)
    into the cloner's benefit estimation; ``None`` keeps the classic
    aggregate estimates.

    ``pipeline`` overrides the scalar pipeline used by the input/output
    optimization stages (the fault-injection harness substitutes
    sabotaged passes here; production callers leave it ``None``).

    ``observer`` is a :class:`~repro.obs.BuildObserver`: every stage
    and pass below becomes a trace span, guarded-pass failures become
    instant events, and each call site the transforms evaluate leaves
    a decision on the inlining ledger.  ``None`` (the default) is the
    no-op fast path.

    Every stage runs behind the resilience layer's
    :class:`~repro.resilience.PassGuard`: a failing pass rolls back to
    the last good IR and the build continues, recording a
    :class:`~repro.core.report.PassFailure` on the report.  Under
    ``config.strict`` the first failure raises instead.
    """
    config = config or HLOConfig()
    if config.strategy not in ("global", "demand"):
        raise ValueError("unknown HLO strategy: {!r}".format(config.strategy))
    report = HLOReport()
    obs = observer if observer is not None else NULL_OBSERVER

    from ..resilience.guard import PassGuard

    guard = PassGuard(
        report, observer=obs, strict=config.strict,
        verify_each_pass=config.verify_each_pass,
    )

    icalls_before = _count_icalls(program)

    # Input stage: classic clean-up plus interprocedural dead-call
    # elimination, before any budget measurement, on live code only.
    # The clean-up adds no call edge or function reference and each
    # pass reads only its own procedure, so sweeping first changes
    # nothing the second sweep keeps; it must keep the routines that
    # take an address, whose references the second sweep counts.  The
    # second sweep deletes what the dead calls freed.  Throwaway
    # managers: the shared one below starts counting after this stage.
    with obs.tracer.span("input-stage", cat="hlo"):
        _delete_unreachable(
            program, report, config.cross_module, AnalysisManager(program),
            takers_are_roots=True,
        )
        optimize_program(program, pipeline, guard=guard, phase="input")
        _delete_unreachable(
            program, report, config.cross_module, AnalysisManager(program)
        )

    if config.enable_outlining:
        # Section 5's complement: shrink hot routines by extracting cold
        # blocks *before* the budget is measured, so the freed quadratic
        # headroom funds additional hot-path inlining below.
        from .outliner import outline_pass

        def run_outline() -> None:
            outline_pass(
                program,
                report,
                cold_ratio=config.outline_cold_ratio,
                min_block_size=config.outline_min_block_size,
            )

        with obs.tracer.span("outline", cat="hlo"):
            guard.run_program_stage(program, "outline", run_outline, phase="input")

    # Analyses computed from here on are memoized across stages and
    # passes; the inliner/cloner invalidate exactly what they mutate
    # (docs/performance.md).  Created after the input stage so the
    # scalar clean-up above never leaves stale entries behind.
    manager = AnalysisManager(program)

    budget = Budget(program, config.budget_percent, config.pass_limit)
    report.initial_cost = budget.initial_cost
    report.budget_limit = budget.limit
    database = CloneDatabase()

    # Strategy-stage accounting: wall and (when a tracemalloc trace is
    # already running, e.g. under ``repro bench-scale``) allocation peak
    # over exactly the planning + transform work the strategy knob
    # controls.  The shared input/output optimization stages are the
    # same cost for every strategy and would drown the comparison.
    import time as _time

    if _tracemalloc_tracing():
        import tracemalloc

        tracemalloc.reset_peak()
        strategy_mem_base = tracemalloc.get_traced_memory()[0]
    else:
        strategy_mem_base = None
    strategy_started = _time.perf_counter()

    if config.strategy == "demand":
        # Demand-driven region-based strategy (docs/performance.md
        # "Inlining strategies"): form profile-hot regions and optimize
        # only their interiors under per-region budgets.  Replaces the
        # global multi-pass loop below; everything around it (input /
        # output stages, sweeps, verification) is shared.
        from .regions import demand_stage

        with obs.tracer.span("demand-stage", cat="hlo"):
            demand_stage(
                program, config, budget, report, database, site_counts,
                manager, guard, obs, context_counts, pipeline,
            )
        with obs.tracer.span("unreachable-sweep", cat="hlo"):
            _delete_unreachable(program, report, config.cross_module, manager)

    pass_number = 0
    while config.strategy == "global" and pass_number < config.pass_limit and not budget.exhausted():
        if config.stop_after is not None and report.transform_count >= config.stop_after:
            break
        performed = 0
        if config.enable_cloning:
            before = budget.current

            def run_clone() -> int:
                return clone_pass(
                    program, config, budget, report, pass_number, database,
                    site_counts, manager, obs, context_counts,
                )

            with obs.tracer.span(
                "clone-pass-{}".format(pass_number), cat="hlo"
            ) as span:
                replaced = _guarded_stage(
                    guard, program, "clone", run_clone, pass_number, "clone",
                    pipeline, report, budget, database, manager, obs,
                )
                span.add(performed=replaced)
            report.pass_traces.append(
                PassTrace(
                    pass_number, "clone", replaced, before, budget.current,
                    budget.stage_limit(pass_number),
                )
            )
            performed += replaced
        if config.enable_inlining:
            before = budget.current

            def run_inline() -> int:
                return inline_pass(
                    program, config, budget, report, pass_number, site_counts,
                    manager, obs,
                )

            with obs.tracer.span(
                "inline-pass-{}".format(pass_number), cat="hlo"
            ) as span:
                inlined = _guarded_stage(
                    guard, program, "inline", run_inline, pass_number, "inline",
                    pipeline, report, budget, database, manager, obs,
                )
                span.add(performed=inlined)
            report.pass_traces.append(
                PassTrace(
                    pass_number, "inline", inlined, before, budget.current,
                    budget.stage_limit(pass_number),
                )
            )
            performed += inlined

        with obs.tracer.span("unreachable-sweep", cat="hlo"):
            _delete_unreachable(program, report, config.cross_module, manager)
        budget.recalibrate(program)
        pass_number += 1
        report.passes_run = pass_number
        # A zero-progress pass does NOT end the loop: later passes get a
        # larger stage allotment (Figure 2's staging), so a site that
        # was too expensive for this stage may be accepted next pass.

    report.strategy_wall_s = _time.perf_counter() - strategy_started
    if strategy_mem_base is not None:
        import tracemalloc

        report.strategy_peak_bytes = max(
            0, tracemalloc.get_traced_memory()[1] - strategy_mem_base
        )

    # Output stage: intensive re-optimization of the final bodies.
    # The scalar pipeline mutates arbitrary procedures, so every
    # memoized analysis is stale afterwards.
    with obs.tracer.span("output-stage", cat="hlo"):
        optimize_program(program, pipeline, guard=guard, phase="output")
        manager.invalidate_all()
        _delete_unreachable(program, report, config.cross_module, manager)
    budget.recalibrate(program)
    report.final_cost = budget.current
    report.clone_db_hits = database.hits
    report.devirtualized = max(0, icalls_before - _count_icalls(program))
    report.analysis_hits = manager.hits
    report.analysis_misses = manager.misses
    report.analysis_invalidations = manager.invalidations

    if verify:
        verify_program(program)
    return report


def _tracemalloc_tracing() -> bool:
    import tracemalloc

    return tracemalloc.is_tracing()


def _guarded_stage(
    guard,
    program: Program,
    name: str,
    run,
    pass_number: int,
    phase: str,
    pipeline,
    report: HLOReport,
    budget: Budget,
    database: CloneDatabase,
    manager: AnalysisManager,
    obs=NULL_OBSERVER,
) -> int:
    """Run one clone/inline stage, unwinding side-state on rollback.

    The guard's mutation record restores the IR; this helper
    additionally restores the report counters, clone database, inlining
    ledger, and budget so a rolled-back stage leaves no phantom
    transforms, stale clone names, phantom ledger decisions, or charged
    cost.  The record restores each procedure the stage wrote in place
    but with fresh blocks and instructions, so memoized analyses that
    point into the old IR are all dropped too.
    """
    report_mark = report.mark()
    db_mark = database.mark()
    ledger_mark = obs.ledger.mark()
    failures_before = len(guard.failures)
    result = guard.run_program_stage(
        program, name, run, pass_number, phase,
        default=0, bisect_pipeline=pipeline or default_pipeline(),
    )
    if len(guard.failures) > failures_before:
        report.rollback_to(report_mark)
        database.rollback_to(db_mark)
        obs.ledger.rollback_to(ledger_mark)
        budget.recalibrate(program)
        manager.invalidate_all()
        return 0
    return result


def _count_icalls(program: Program) -> int:
    return sum(
        1
        for proc in program.all_procs()
        for instr in proc.instructions()
        if isinstance(instr, ICall)
    )


def _delete_unreachable(
    program: Program, report: HLOReport, whole_program: bool,
    manager: AnalysisManager, takers_are_roots: bool = False,
) -> None:
    """Delete routines unreachable from the roots.

    With the whole program visible (link-time scope), ``main`` is the
    only root, so clonees whose every call was cloned or inlined die,
    as do dead file-scope user routines.  Module-at-a-time compilation
    must assume unseen callers of every global-linkage routine, so only
    unreferenced statics can go.  ``takers_are_roots`` keeps every
    routine that takes an address (``CallGraph.reachable_from``).
    """
    if program.proc("main") is None:
        return
    graph = manager.callgraph()
    if whole_program:
        roots = ["main"]
    else:
        roots = [
            p.name for p in program.all_procs() if p.linkage != "static"
        ]
    keep = set(graph.reachable_from(roots, takers_are_roots))
    deleted = []
    for proc in list(program.all_procs()):
        if proc.name not in keep:
            program.delete_proc(proc.name)
            report.record_deletion(proc.name)
            deleted.append(proc.name)
    if deleted:
        manager.invalidate_procs(deleted)
