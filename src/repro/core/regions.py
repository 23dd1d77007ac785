"""Demand-driven region-based inlining (``strategy="demand"``).

The paper's whole-program loop (Figure 2) walks every call site each
pass, so compile time and peak memory scale with *program* size.
Way & Pollock's region-based formulation inverts that: form hot
regions from the profile, inline only what each region demands, and
bound work by region size.  This module is that strategy:

- :func:`form_regions` seeds regions at the hottest procedures (entry
  count above a fraction of the hottest), marks each member's hot
  blocks, widens the hot set along dominator / loop structure
  (control-equivalent classes and natural-loop bodies), and grows the
  region through its hottest interior call sites until a per-region
  size cap — at most ``REGION_LIMIT`` regions, so planner work is
  bounded regardless of program size;
- :func:`demand_stage` walks only region-interior call sites,
  requesting inlines and clones from the existing legality / benefit /
  budget machinery (``inline_blocker`` / ``rank_site`` /
  ``perform_inline``, ``clone_blocker`` / ``make_clone_spec`` /
  ``copy_into_new_proc``) under a :class:`RegionBudget` — the
  region-local analogue of the global quadratic budget.

Cold procedures are never block-analyzed, ranked, or copied; their
memoized analyses are never invalidated: the planner treats the call
graph and entry counts as a frozen plan-time view and drops only the
frequency memos of what a region wrote.  Every ledger decision carries
the region name.  Each region is one guarded stage, like a global clone or inline
pass: its writes go on one mutation record
(:class:`~repro.resilience.guard.MutationRecord`), which names what to
invalidate when the region commits and undoes the region's writes —
inside its members or not — when it fails; the planner then unwinds
only that region's decisions and memos.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from ..analysis.callgraph import CallGraph, CallSite
from ..analysis.dominators import control_equivalent_classes
from ..analysis.freq import cached_block_freqs, site_weight
from ..analysis.loops import find_loops
from ..ir.instructions import Call
from ..ir.program import Program
from ..obs import NULL_OBSERVER
from ..obs.ledger import record_decision
from ..opt.pass_manager import default_pipeline, optimize_proc
from .benefit import rank_site
from .budget import Budget
from .cloner import (
    MIN_CLONE_BENEFIT,
    CloneDatabase,
    _address_taken,
    _entry_count,
    _retarget_site,
    context_matches,
    make_clone_spec,
    param_usage_weights,
    spec_key,
)
from .config import HLOConfig
from .inliner import GLUE_FIXED, GLUE_PER_ARG, MIN_INLINE_BENEFIT, perform_inline
from .legality import clone_blocker, inline_blocker
from .report import HLOReport, PassTrace
from .transplant import copy_into_new_proc, subtract_moved_counts, transfer_ratio

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.manager import AnalysisManager
    from ..resilience.guard import PassGuard

SiteCounts = Dict[Tuple[str, int], int]

# A procedure (or block) is hot when its absolute heat reaches this
# fraction of the hottest procedure's.
REGION_HOT_FRACTION = 0.001
# At most this many regions form, so planner work is bounded whatever
# the program size.
REGION_LIMIT = 64


class Region:
    """One profile-hot region: member procedures and their hot sites."""

    __slots__ = ("name", "index", "seed", "procs", "sites", "size", "cost",
                 "cut")

    def __init__(self, index: int, seed: str, cut: float):
        self.index = index
        self.seed = seed
        self.name = "r{}:{}".format(index, seed)
        self.procs: Set[str] = set()
        self.sites: List[CallSite] = []
        self.size = 0
        self.cost = 0.0
        # The absolute heat threshold this region was formed at; reused
        # when the planner re-enumerates hot sites between iterations.
        self.cut = cut

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<Region {} procs={} sites={} size={}>".format(
            self.name, len(self.procs), len(self.sites), self.size
        )


class RegionBudget:
    """Per-region compile-cost allowance (region-local Figure 2 budget).

    Seeded with the region's own quadratic cost; transforms charge the
    same :meth:`Budget.inline_delta` / :meth:`Budget.clone_delta`
    statics the global strategy uses, but against the region's
    allowance — growth is bounded by hot-footprint size, not program
    size.
    """

    __slots__ = ("initial", "limit", "current", "ran_out")

    def __init__(self, region_cost: float, percent: float):
        self.initial = region_cost
        self.limit = region_cost + region_cost * percent / 100.0
        self.current = region_cost
        self.ran_out = False

    def fits(self, delta: float) -> bool:
        if self.current + delta <= self.limit:
            return True
        self.ran_out = True
        return False

    def charge(self, delta: float) -> None:
        self.current += delta


# ----------------------------------------------------------------------
# Region formation
# ----------------------------------------------------------------------


def _hot_blocks(proc, cut: float, proc_entry: float, use_profile: bool,
                freq_cache) -> Set[str]:
    """Seed blocks above the heat threshold, widened along structure.

    A block is seed-hot when its absolute heat (procedure entry count
    times relative block frequency) reaches ``cut``.  The seed set is
    then widened along dominator / loop structure: a control-equivalent
    class containing a hot block is wholly hot (its blocks execute
    together), and a natural loop whose header is hot pulls in its
    whole body.
    """
    rel = cached_block_freqs(proc, use_profile, freq_cache)
    hot = {label for label, freq in rel.items() if proc_entry * freq >= cut}
    if not hot:
        return hot
    for cls in control_equivalent_classes(proc):
        if any(label in hot for label in cls):
            hot.update(cls)
    for loop in find_loops(proc):
        if loop.header in hot:
            hot.update(loop.body)
    return hot


def _proc_heat(
    entry: Dict[str, float],
    graph: CallGraph,
    counts: Optional[SiteCounts],
) -> Dict[str, float]:
    """Absolute heat per procedure, for seeding.

    Entry count alone misses the canonical hot shape: ``main`` enters
    once but spins the program's hottest loop.  With measured counts,
    a caller is at least as hot as its hottest call site (the site ran
    inside the caller), which lifts loop-driving callers to the heat of
    the loops they drive — without block-analyzing anything.
    """
    heat = dict(entry)
    if counts:
        for site in graph.sites:
            measured = counts.get(site.key)
            if measured and measured > heat.get(site.caller.name, 0.0):
                heat[site.caller.name] = float(measured)
    return heat


def form_regions(
    program: Program,
    config: HLOConfig,
    graph: CallGraph,
    entry: Dict[str, float],
    freq_cache,
    counts: Optional[SiteCounts],
) -> List[Region]:
    """Form disjoint hot regions, hottest seed first.

    Only procedures that become region members are ever block-analyzed;
    cold code contributes nothing but its (already computed) entry
    count.  Each procedure joins at most one region; a seed whose hot
    interior contains no call sites forms no region (it demands
    nothing).
    """
    heat = _proc_heat(entry, graph, counts)
    max_heat = max(heat.values(), default=0.0)
    if max_heat <= 0.0:
        return []
    cut = max_heat * REGION_HOT_FRACTION

    hot_procs = sorted(
        (name for name, value in heat.items()
         if value > 0.0 and value >= cut and program.proc(name) is not None),
        key=lambda name: (-heat[name], name),
    )

    def hot_sites_of(name: str) -> List[CallSite]:
        proc = program.proc(name)
        hot = _hot_blocks(proc, cut, entry.get(name, 0.0), config.use_profile,
                          freq_cache)
        return [s for s in graph.sites_in(name) if s.block.label in hot]

    regions: List[Region] = []
    assigned: Set[str] = set()
    for seed in hot_procs:
        if seed in assigned:
            continue
        if len(regions) >= REGION_LIMIT:
            break
        region = Region(len(regions), seed, cut)
        region.procs.add(seed)
        assigned.add(seed)
        region.size = program.proc(seed).size()
        region.sites = hot_sites_of(seed)

        # Grow through the hottest interior sites: pulling a hot callee
        # into the region exposes *its* hot sites as further demand.
        frontier = [s for s in region.sites if s.callee is not None]
        while frontier:
            frontier.sort(key=lambda s: (
                -site_weight(s, entry, counts, config.use_profile, freq_cache),
                s.caller.name, s.instr.site_id,
            ))
            site = frontier.pop(0)
            callee = site.callee
            if callee is None or callee.name in assigned:
                continue
            if region.size + callee.size() > config.region_size_cap:
                continue
            region.procs.add(callee.name)
            assigned.add(callee.name)
            region.size += callee.size()
            new_sites = hot_sites_of(callee.name)
            region.sites.extend(new_sites)
            frontier.extend(s for s in new_sites if s.callee is not None)

        if not region.sites:
            # A siteless region demands nothing; release its members so
            # a later (caller-side) region can claim them — otherwise a
            # hot leaf would fragment its caller's region.
            assigned.difference_update(region.procs)
            continue
        region.cost = float(sum(
            program.proc(name).size() ** 2 for name in region.procs
        ))
        region.index = len(regions)
        region.name = "r{}:{}".format(region.index, seed)
        regions.append(region)
    return regions


# ----------------------------------------------------------------------
# The demand planner
# ----------------------------------------------------------------------


def _current_callee(program: Program, site: CallSite):
    """The procedure this site calls *now* (it may have been retargeted
    to a clone since the plan-time graph was built)."""
    if not isinstance(site.instr, Call):
        return site.callee
    name = site.instr.callee
    if site.callee is not None and site.callee.name == name:
        return site.callee
    return program.proc(name)


def _refresh_site(program: Program, site: CallSite) -> CallSite:
    """A copy of ``site`` whose callee reflects the current instruction."""
    callee = _current_callee(program, site)
    if callee is site.callee:
        return site
    return CallSite(site.caller, site.block, site.index, site.instr,
                    callee, site.category)


def _classify_live(proc, instr, callee) -> str:
    """Figure 5 category for a freshly enumerated site (no SCC pass:
    only self-recursion is recognized, which is all the region screens
    consult — blockers test INDIRECT/EXTERNAL and compare names)."""
    from ..analysis.callgraph import (
        CROSS_MODULE, EXTERNAL, INDIRECT, RECURSIVE, WITHIN_MODULE,
    )
    from ..ir.instructions import ICall

    if isinstance(instr, ICall):
        return INDIRECT
    if callee is None:
        return EXTERNAL
    if callee.name == proc.name:
        return RECURSIVE
    if callee.module != proc.module:
        return CROSS_MODULE
    return WITHIN_MODULE


def _live_region_sites(
    program: Program,
    region: Region,
    config: HLOConfig,
    entry: Dict[str, float],
    freq_cache,
) -> List[CallSite]:
    """Re-enumerate the region's hot interior from the *current* IR.

    After an iteration transforms, the plan-time site list is stale:
    inlined bodies brought new call sites into members, retargets moved
    edges, and migrated profile counts shifted which blocks are hot.
    Work stays region-bounded — only member procedures are walked.
    """
    sites: List[CallSite] = []
    for name in sorted(region.procs):
        proc = program.proc(name)
        if proc is None:
            continue
        hot = _hot_blocks(proc, region.cut, entry.get(name, 0.0),
                          config.use_profile, freq_cache)
        for block, index, instr in proc.call_sites():
            if block.label not in hot:
                continue
            callee = None
            if isinstance(instr, Call):
                callee = program.proc(instr.callee)
            sites.append(CallSite(
                proc, block, index, instr, callee,
                _classify_live(proc, instr, callee),
            ))
    return sites


def demand_stage(
    program: Program,
    config: HLOConfig,
    budget: Budget,
    report: HLOReport,
    database: CloneDatabase,
    site_counts: Optional[SiteCounts],
    manager: "AnalysisManager",
    guard: "PassGuard",
    obs=NULL_OBSERVER,
    context_counts=None,
    pipeline=None,
) -> int:
    """Form regions and optimize each under its own budget.

    Runs in place of the global clone/inline loop.  Each region is one
    guarded stage: a failing region's mutation record undoes every
    write it made — member bodies, callee counts it moved, statics it
    promoted, clones it added — and the planner rolls back its report
    counters, clone-database entries, ledger decisions (by mark *and*
    by region tag) and frequency memos, while the rest of the
    program's memo pool stays warm.  Returns the number of transforms
    performed.
    """
    counts = site_counts if config.use_profile else None
    graph = manager.callgraph()
    entry = manager.entry_counts(counts)
    freq_cache = manager.freq_cache()

    regions = form_regions(program, config, graph, entry, freq_cache, counts)
    report.regions_formed = len(regions)
    address_taken = _address_taken(program)

    performed_total = 0
    all_mutated: Set[str] = set()
    # One whole-program size table, kept current as regions commit, so
    # the shared budget can be charged incrementally: recomputing the
    # program cost per region is O(program x regions) and dominates
    # compile wall on mega-programs.  A region can mutate procs outside
    # its membership (inlining subtracts moved counts from the callee),
    # so the table must cover everything, not just region interiors.
    sizes = {proc.name: proc.size() for proc in program.all_procs()}
    for region in regions:
        rbudget = RegionBudget(region.cost, config.region_budget_percent)
        cost_before = budget.current

        def run_region(region=region, rbudget=rbudget):
            return _optimize_region(
                program, region, rbudget, graph, config, report, database,
                entry, freq_cache, counts, obs, context_counts, address_taken,
            )

        report_mark = report.mark()
        db_mark = database.mark()
        ledger_mark = obs.ledger.mark()
        # Shallow snapshot of the frequency memo table: the region
        # loop pops and refills entries mid-run, so on rollback the
        # table must return to exactly its pre-region state (values
        # are never mutated in place, so sharing them is safe).
        freq_mark = dict(freq_cache)
        failures_before = len(guard.failures)
        with obs.tracer.span(
            "demand:{}".format(region.name) if obs.tracer.enabled else "",
            cat="hlo", region=region.name,
        ):
            result = guard.run_program_stage(
                program, "demand", run_region, region.index, "demand",
                default=None, bisect_pipeline=pipeline or default_pipeline(),
            )
        if len(guard.failures) > failures_before:
            # Region-scoped rollback: the guard restored the IR;
            # unwind only this region's side state.  The frequency
            # memo table goes back to exactly its pre-region state,
            # which matches the restored IR, so no memo is dropped.
            report.rollback_to(report_mark)
            database.rollback_to(db_mark)
            obs.ledger.rollback_to(ledger_mark)
            obs.ledger.truncate_region(region.name)
            freq_cache.clear()
            freq_cache.update(freq_mark)
            # No budget resync needed: only the *region* budget is
            # charged while a region runs, and the guard restored
            # the IR, so the shared budget still matches the program.
            continue
        performed, mutated = result if result is not None else (0, set())

        performed_total += performed
        # The region loop has already dropped the frequency memos of
        # everything the region wrote: an iteration writes only when it
        # performs a transform, and then drops them before the next read.
        # The rest of the pool stays warm for the remaining regions.
        all_mutated |= mutated
        if rbudget.ran_out:
            report.region_budget_exhausted += 1
        # Incremental shared-budget accounting: the program-cost delta
        # is exactly the sum of size^2 changes over the mutated procs.
        # Clones start from zero; everything pre-existing is in the
        # table, which is updated here so later regions see committed
        # sizes.
        delta = 0.0
        for name in mutated:
            proc = program.proc(name)
            new_size = proc.size() if proc is not None else 0
            old_size = sizes.get(name, 0)
            delta += float(new_size * new_size) - float(old_size * old_size)
            sizes[name] = new_size
        if delta:
            budget.charge(delta)
        report.pass_traces.append(PassTrace(
            region.index, "demand", performed, cost_before, budget.current,
            rbudget.limit,
        ))

    report.passes_run = 1 if regions else 0
    # The plan-time graph / entry snapshot is now stale wherever the
    # regions transformed; later consumers (unreachable sweep, output
    # stage) need fresh program-level analyses.
    if all_mutated:
        manager.invalidate_procs(all_mutated)
    return performed_total


def _optimize_region(
    program: Program,
    region: Region,
    rbudget: RegionBudget,
    graph: CallGraph,
    config: HLOConfig,
    report: HLOReport,
    database: CloneDatabase,
    entry: Dict[str, float],
    freq_cache,
    counts: Optional[SiteCounts],
    obs,
    context_counts,
    address_taken: Set[str],
) -> Tuple[int, Set[str]]:
    """Optimize one region to a fixpoint; returns (performed, mutated).

    Mirrors the global loop's clone/inline alternation, but region-
    scoped: each iteration clones then inlines the region's current hot
    interior, re-optimizes what it touched, drops the frequency memos
    of everything the region's mutation record names, and re-enumerates
    — an inlined body's own call sites become the next iteration's
    demand.  Stops after ``config.pass_limit`` iterations or the first
    iteration that performs nothing.
    """
    from ..resilience.guard import recording

    performed = 0
    sites = region.sites
    with recording(program) as record:
        for _iteration in range(max(1, config.pass_limit)):
            round_performed = 0
            touched: Set[str] = set()
            if config.enable_cloning:
                round_performed += _clone_in_region(
                    program, region, rbudget, sites, graph, config, report,
                    database, entry, freq_cache, counts, obs, address_taken,
                    touched,
                )
            if config.enable_inlining:
                round_performed += _inline_in_region(
                    program, region, rbudget, sites, graph, config, report,
                    entry, freq_cache, counts, obs, touched,
                )
            if config.reoptimize:
                for name in sorted(touched):
                    proc = program.proc(name)
                    if proc is not None:
                        optimize_proc(program, proc)
            performed += round_performed
            if round_performed == 0:
                break
            # Transformed members (and callees whose counts migrated)
            # have stale frequency memos; drop just those before
            # re-enumerating.
            for name in record.mutated():
                freq_cache.pop(name, None)
            sites = _live_region_sites(program, region, config, entry, freq_cache)
    return performed, record.mutated()


def _clone_in_region(
    program: Program,
    region: Region,
    rbudget: RegionBudget,
    sites: List[CallSite],
    graph: CallGraph,
    config: HLOConfig,
    report: HLOReport,
    database: CloneDatabase,
    entry: Dict[str, float],
    freq_cache,
    counts: Optional[SiteCounts],
    obs,
    address_taken: Set[str],
    touched: Set[str],
) -> int:
    """Region-scoped cloning: group only region-interior sites.

    Same screens, spec intersection, and benefit model as the global
    cloner, but candidate sites and group members come from the
    region's hot interior — a cold caller of the same callee is never
    visited, so ``deletes_clonee`` (checked against the *real* incoming
    edge set) is simply rarer here.
    """
    usage_cache: Dict[str, List[float]] = {}
    region_keys = {s.key for s in sites}
    grouped: Set[Tuple[str, int]] = set()
    replaced = 0
    for site in sites:
        if site.key in grouped:
            continue
        blocker = clone_blocker(
            program, site, config.cross_module, config.local_modules
        )
        if blocker is not None:
            record_decision(
                obs, report, "clone", region.index, site, "rejected", blocker,
                region=region.name,
            )
            continue
        callee = site.callee
        assert callee is not None
        usage = usage_cache.get(callee.name)
        if usage is None:
            usage = param_usage_weights(callee, config, freq_cache)
            usage_cache[callee.name] = usage
        spec = make_clone_spec(site, usage)
        if not spec:
            record_decision(
                obs, report, "clone", region.index, site, "rejected",
                "no caller-supplied constant meets an interesting parameter",
                reason_class="benefit", region=region.name,
            )
            continue

        members = [site]
        if config.clone_groups:
            for other in graph.callers_of(callee.name):
                if other.key == site.key or other.key in grouped:
                    continue
                if other.key not in region_keys:
                    continue  # demand: never visit cold callers
                if clone_blocker(
                    program, other, config.cross_module, config.local_modules
                ) is not None:
                    continue
                if context_matches(other.instr, spec):  # type: ignore[arg-type]
                    members.append(other)

        value = sum(usage[pos] for pos in spec)
        benefit = sum(
            site_weight(m, entry, counts, config.use_profile, freq_cache) * value
            for m in members
        )
        if benefit <= MIN_CLONE_BENEFIT:
            record_decision(
                obs, report, "clone", region.index, site, "rejected",
                "benefit below threshold", reason_class="benefit",
                benefit=benefit, region=region.name,
            )
            continue

        incoming = graph.callers_of(callee.name)
        member_keys = {m.key for m in members}
        covers_all = all(s.key in member_keys for s in incoming)
        deletes = (
            covers_all
            and callee.name not in address_taken
            and callee.name != "main"
        )

        key = spec_key(callee.name, spec)
        clone_name = database.lookup(key) if config.clone_database else None
        if clone_name is not None and program.proc(clone_name) is None:
            clone_name = None
        cost = 0.0 if clone_name is not None else Budget.clone_delta(
            callee.size(), deletes
        )
        if not rbudget.fits(cost):
            for member in members:
                record_decision(
                    obs, report, "clone", region.index, member, "rejected",
                    "region budget exhausted", reason_class="budget",
                    benefit=benefit, region=region.name,
                )
                grouped.add(member.key)
            continue

        if clone_name is None:
            clone_name = database.fresh_name(program, callee.name)
            group_count = None
            if counts is not None:
                total, seen = 0, False
                for member in members:
                    if member.key in counts:
                        total += counts[member.key]
                        seen = True
                group_count = total if seen else None
            ratio = transfer_ratio(group_count, _entry_count(callee))
            with obs.tracer.span(
                "clone:{}".format(clone_name) if obs.tracer.enabled else "",
                cat="transform", clonee=callee.name, region=region.name,
            ):
                clone = copy_into_new_proc(
                    program,
                    callee,
                    program.modules[callee.module],
                    clone_name,
                    spec,
                    ratio,
                    on_promote=report.record_promotion,
                )
                program.modules[callee.module].add_proc(clone)
                program.report_added(clone)
                subtract_moved_counts(program, callee, ratio)
                report.clones += 1
                if config.clone_database:
                    database.record(key, clone_name)
                touched.add(clone_name)
                if config.reoptimize:
                    optimize_proc(program, clone)
            rbudget.charge(cost)

        for member in members:
            grouped.add(member.key)
            if _retarget_site(program, member, spec, clone_name):
                replaced += 1
                record_decision(
                    obs, report, "clone", region.index, member, "cloned",
                    "call site retargeted to clone", reason_class="accepted",
                    benefit=benefit, region=region.name,
                )
                report.record_clone_replacement(
                    region.index, member.caller.name, clone_name,
                    member.instr.site_id, callee.name,
                )
                touched.add(member.caller.name)
            else:
                record_decision(
                    obs, report, "clone", region.index, member, "rejected",
                    "call site changed before retargeting",
                    reason_class="mechanical", region=region.name,
                )
    return replaced


def _inline_in_region(
    program: Program,
    region: Region,
    rbudget: RegionBudget,
    sites: List[CallSite],
    graph: CallGraph,
    config: HLOConfig,
    report: HLOReport,
    entry: Dict[str, float],
    freq_cache,
    counts: Optional[SiteCounts],
    obs,
    touched: Set[str],
) -> int:
    """Region-scoped inlining: screen, rank, and perform hot sites.

    Greedy acceptance in benefit order against the region budget, using
    the same per-transform delta model as the global schedule
    (``Budget.inline_delta`` over projected member sizes); performed
    bottom-up so a callee's accepted inlines land before its body is
    copied upward.
    """
    candidates = []
    for stale in sites:
        site = _refresh_site(program, stale)
        blocker = inline_blocker(
            program, site, config.cross_module, config.local_modules
        )
        if blocker is not None:
            record_decision(
                obs, report, "inline", region.index, site, "rejected", blocker,
                region=region.name,
            )
            continue
        ranked = rank_site(site, entry, config, counts, freq_cache)
        if ranked.always_inline or ranked.benefit > MIN_INLINE_BENEFIT:
            candidates.append(ranked)
        else:
            record_decision(
                obs, report, "inline", region.index, site, "rejected",
                "benefit below threshold", reason_class="benefit",
                benefit=ranked.benefit, region=region.name,
            )
    candidates.sort(key=lambda r: r.sort_key)

    projected: Dict[str, int] = {}
    for name in region.procs:
        proc = program.proc(name)
        if proc is not None:
            projected[name] = proc.size()

    accepted = []
    for ranked in candidates:
        caller = ranked.site.caller.name
        callee = ranked.site.callee.name  # type: ignore[union-attr]
        caller_size = projected.get(caller, ranked.site.caller.size())
        callee_size = projected.get(
            callee, ranked.site.callee.size()  # type: ignore[union-attr]
        )
        glue = len(ranked.site.instr.args) * GLUE_PER_ARG + GLUE_FIXED - 1
        delta = Budget.inline_delta(caller_size, callee_size + glue)
        if ranked.always_inline or rbudget.fits(delta):
            accepted.append(ranked)
            if not ranked.always_inline:
                rbudget.charge(delta)
            projected[caller] = caller_size + callee_size + glue
        else:
            record_decision(
                obs, report, "inline", region.index, ranked.site, "rejected",
                "region budget exhausted", reason_class="budget",
                benefit=ranked.benefit, region=region.name,
            )

    if not accepted:
        return 0

    perform_rank = {name: i for i, name in enumerate(graph.bottom_up_order())}
    accepted.sort(key=lambda r: (
        perform_rank.get(r.site.caller.name, 0), -r.benefit
    ))
    performed = 0
    for ranked in accepted:
        caller = program.proc(ranked.site.caller.name)
        if caller is None:
            record_decision(
                obs, report, "inline", region.index, ranked.site, "rejected",
                "caller deleted before transform", reason_class="mechanical",
                region=region.name,
            )
            continue
        callee_name = ranked.site.callee.name  # type: ignore[union-attr]
        with obs.tracer.span(
            "inline:{}<-{}".format(caller.name, callee_name)
            if obs.tracer.enabled else "",
            cat="transform", site=ranked.site.instr.site_id, region=region.name,
        ):
            done = perform_inline(
                program, caller, ranked.site.instr.site_id, report, region.index
            )
        if done:
            performed += 1
            record_decision(
                obs, report, "inline", region.index, ranked.site, "inlined",
                "accepted within region budget", reason_class="accepted",
                benefit=ranked.benefit, region=region.name,
            )
            touched.add(caller.name)
        else:
            record_decision(
                obs, report, "inline", region.index, ranked.site, "rejected",
                "call site vanished before transform",
                reason_class="mechanical", region=region.name,
            )
    return performed
