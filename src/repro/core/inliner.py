"""The inlining pass (Figure 4 of the paper).

Screen every direct call site, rank the viable ones by run-time figure
of merit, greedily accept sites into a *schedule* while the staged
budget holds (cost of an inline is evaluated against the projected
sizes implied by everything already scheduled, which models the
paper's cascaded-cost adjustment), then perform the schedule bottom-up
over the call graph so that a callee's own accepted inlines land before
its body is copied upward.  Finally the transformed routines are
re-optimized and the budget recalibrated.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.manager import AnalysisManager
from ..ir.basicblock import BasicBlock
from ..ir.instructions import Call, Jump
from ..ir.procedure import Procedure
from ..ir.program import Program
from ..obs import NULL_OBSERVER
from ..obs.ledger import record_decision
from ..opt.pass_manager import optimize_proc
from .benefit import RankedSite, rank_site
from .budget import Budget
from .config import HLOConfig
from .legality import inline_blocker
from .report import HLOReport
from .transplant import (
    BlockSnapshot,
    splice_body,
    subtract_moved_counts,
    transfer_ratio,
)

# Instructions of glue added per inline beyond the callee body: one
# parameter-binding move per argument plus the landing/continue jumps.
GLUE_PER_ARG = 1
GLUE_FIXED = 2

# A site is a candidate only when its run-time figure of merit exceeds
# this (a site that never runs has benefit 0).
MIN_INLINE_BENEFIT = 1e-9


class ScheduledInline:
    __slots__ = ("ranked", "caller", "callee", "site_id")

    def __init__(self, ranked: RankedSite):
        self.ranked = ranked
        self.caller = ranked.site.caller.name
        self.callee = ranked.site.callee.name  # type: ignore[union-attr]
        self.site_id = ranked.site.instr.site_id


def inline_pass(
    program: Program,
    config: HLOConfig,
    budget: Budget,
    report: HLOReport,
    pass_number: int,
    site_counts: Optional[Dict[Tuple[str, int], int]],
    manager: "AnalysisManager",
    obs=NULL_OBSERVER,
) -> int:
    """Run one inline pass; returns the number of inlines performed.

    The :class:`~repro.analysis.AnalysisManager` hands out the call
    graph, entry counts, and block frequencies, reused from earlier
    stages when still valid; the procedures the stage's mutation record
    names (callers spliced into, callees whose counts moved) are
    invalidated so the caches stay honest.  ``obs`` is
    the observability bundle: every site evaluated here leaves a
    decision on its ledger (and bumps ``report.sites_considered``).
    """
    counts = site_counts if config.use_profile else None
    graph = manager.callgraph()
    entry = manager.entry_counts(counts)
    freq_cache = manager.freq_cache()

    # Screen and rank (Figure 4: "screen inline candidates").
    candidates: List[RankedSite] = []
    for site in graph.sites:
        blocker = inline_blocker(
            program, site, config.cross_module, config.local_modules
        )
        if blocker is not None:
            record_decision(
                obs, report, "inline", pass_number, site, "rejected", blocker,
            )
            continue
        ranked = rank_site(site, entry, config, counts, freq_cache)
        if ranked.always_inline or ranked.benefit > MIN_INLINE_BENEFIT:
            candidates.append(ranked)
        else:
            record_decision(
                obs, report, "inline", pass_number, site, "rejected",
                "benefit below threshold", reason_class="benefit",
                benefit=ranked.benefit,
            )
    candidates.sort(key=lambda r: r.sort_key)

    # Greedy selection against the staged budget, with cascaded costs
    # modelled by replaying the projected schedule.
    base_sizes = {p.name: p.size() for p in program.all_procs()}
    base_cost = sum(s * s for s in base_sizes.values())
    other_cost = budget.current - base_cost  # cost attributed elsewhere (≈0)
    perform_rank = {name: i for i, name in enumerate(graph.bottom_up_order())}
    stage = budget.stage_limit(pass_number)

    schedule: List[ScheduledInline] = []
    for ranked in candidates:
        entry_item = ScheduledInline(ranked)
        schedule.append(entry_item)
        projected_cost = _replay_cost(schedule, base_sizes, perform_rank) + other_cost
        if ranked.always_inline:
            continue  # user directive: exempt from the budget
        if projected_cost > stage:
            schedule.pop()
            record_decision(
                obs, report, "inline", pass_number, ranked.site, "rejected",
                "staged budget exhausted", reason_class="budget",
                benefit=ranked.benefit,
            )

    if not schedule:
        return 0

    from ..resilience.guard import recording

    # Perform bottom-up (callees before callers), so bodies accumulate.
    schedule.sort(key=lambda s: (perform_rank.get(s.caller, 0), -s.ranked.benefit))
    performed = 0
    touched: Set[str] = set()
    with recording(program) as record:
        for index, item in enumerate(schedule):
            if config.stop_after is not None and report.transform_count >= config.stop_after:
                for later in schedule[index:]:
                    record_decision(
                        obs, report, "inline", pass_number, later.ranked.site,
                        "rejected", "stop-after limit reached",
                        reason_class="budget", benefit=later.ranked.benefit,
                    )
                break
            caller = program.proc(item.caller)
            if caller is None:
                record_decision(
                    obs, report, "inline", pass_number, item.ranked.site,
                    "rejected", "caller deleted before transform",
                    reason_class="mechanical",
                )
                continue
            with obs.tracer.span(
                "inline:{}<-{}".format(item.caller, item.callee)
                if obs.tracer.enabled else "",
                cat="transform", site=item.site_id,
            ):
                done = perform_inline(program, caller, item.site_id, report, pass_number)
            if done:
                performed += 1
                record_decision(
                    obs, report, "inline", pass_number, item.ranked.site,
                    "inlined", "accepted within staged budget",
                    reason_class="accepted", benefit=item.ranked.benefit,
                )
                touched.add(item.caller)
            else:
                record_decision(
                    obs, report, "inline", pass_number, item.ranked.site,
                    "rejected", "call site vanished before transform",
                    reason_class="mechanical",
                )

        # "optimize inlines and recalibrate"
        if config.reoptimize:
            for name in sorted(touched):
                proc = program.proc(name)
                if proc is not None:
                    optimize_proc(program, proc)
    budget.recalibrate(program)
    mutated = record.mutated()
    if mutated:
        manager.invalidate_procs(mutated)
    return performed


def _replay_cost(
    schedule: List[ScheduledInline],
    base_sizes: Dict[str, int],
    perform_rank: Dict[str, int],
) -> float:
    """Program cost after performing ``schedule`` bottom-up."""
    ordered = sorted(
        schedule, key=lambda s: (perform_rank.get(s.caller, 0), -s.ranked.benefit)
    )
    projected = dict(base_sizes)
    for item in ordered:
        callee_size = projected.get(item.callee, 0)
        arg_count = len(item.ranked.site.instr.args)
        added = callee_size + arg_count * GLUE_PER_ARG + GLUE_FIXED - 1
        projected[item.caller] = projected.get(item.caller, 0) + max(added, 0)
    return float(sum(s * s for s in projected.values()))


def perform_inline(
    program: Program,
    caller: Procedure,
    site_id: int,
    report: HLOReport,
    pass_number: int,
) -> bool:
    """Inline the direct call with ``site_id`` in ``caller`` (if present)."""
    located = None
    for block, index, instr in caller.call_sites():
        if instr.site_id == site_id and isinstance(instr, Call):
            located = (block, index, instr)
            break
    if located is None:
        return False
    block, index, instr = located
    callee = program.proc(instr.callee)
    if callee is None:
        return False

    # Snapshot before any mutation (a self-recursive inline would
    # otherwise copy a half-edited body).
    snapshot = BlockSnapshot(callee)
    ratio = transfer_ratio(block.profile_count, snapshot.entry_count)

    # Split the calling block around the call.
    program.report_body(caller)
    cont_label = caller.new_label("cont")
    tail = BasicBlock(cont_label, block.instrs[index + 1:])
    tail.profile_count = block.profile_count
    caller.blocks[cont_label] = tail
    block.instrs = block.instrs[:index]

    caller_module = program.modules[caller.module]
    args = list(instr.args)
    # A varargs callee never reaches here (legality), so arity matches.
    landing = splice_body(
        program,
        caller,
        caller_module,
        snapshot,
        args,
        instr.dest,
        cont_label,
        ratio,
        on_promote=report.record_promotion,
    )
    block.instrs.append(Jump(landing))

    if callee.name != caller.name:
        subtract_moved_counts(program, callee, ratio)
    if callee.uses_dynamic_alloca:
        # Cannot happen through the legality screen, but keep the
        # invariant locally: dynamic allocas never move between frames.
        raise AssertionError("inlined a dynamic-alloca callee")

    report.record_inline(pass_number, caller.name, callee.name, site_id)
    return True
