"""The cloning pass (Figure 3 of the paper).

For every clonable direct call site, intersect what the caller supplies
(the *calling-context descriptor*: constant actual arguments — "in our
current implementation, only caller-supplied constants are considered
interesting") with what the callee can exploit (the *parameter-usage
descriptor*: per-parameter interest weights, with "special emphasis
... on parameter values that reach the function position at an indirect
call site").  A non-empty intersection is a *clone spec*; the cloner
then greedily forms a *clone group* of all compatible sites, estimates
the group's run-time benefit, ranks groups, and creates clones within
the staged budget.  Clones and their specs are recorded in a database
so later passes reuse rather than re-create them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.manager import AnalysisManager

from ..analysis.callgraph import CallGraph, CallSite
from ..analysis.freq import cached_block_freqs, context_block_freqs, site_weight
from ..ir.instructions import Branch, Call, ICall
from ..ir.procedure import Procedure
from ..ir.program import Program
from ..ir.values import FuncRef, GlobalRef, Imm, Operand, Reg
from ..obs import NULL_OBSERVER
from ..obs.ledger import record_decision
from ..opt.pass_manager import optimize_proc
from .budget import Budget
from .config import HLOConfig
from .legality import clone_blocker
from .report import HLOReport
from .transplant import copy_into_new_proc, subtract_moved_counts, transfer_ratio

SpecKey = Tuple[str, Tuple[Tuple[int, Tuple], ...]]

# Use-kind weights for the callee-side analysis: a parameter that
# reaches an indirect call's function position is worth the most (a
# constant there devirtualizes the call), one that steers a branch
# more than a plain data use.
PLAIN_USE_WEIGHT = 1.0
BRANCH_USE_WEIGHT = 3.0
INDIRECT_CALL_BONUS = 10.0

# A clone group is a candidate only when its estimated benefit
# exceeds this.
MIN_CLONE_BENEFIT = 1e-9


def operand_key(op: Operand) -> Tuple:
    """A hashable identity for a constant operand."""
    if isinstance(op, Imm):
        return ("imm", op.type.value, repr(op.value))
    if isinstance(op, FuncRef):
        return ("func", op.name)
    if isinstance(op, GlobalRef):
        return ("glob", op.name)
    raise TypeError("not a constant operand: {!r}".format(op))


def spec_key(callee: str, spec: Dict[int, Operand]) -> SpecKey:
    return (callee, tuple((pos, operand_key(op)) for pos, op in sorted(spec.items())))


class CloneDatabase:
    """Cross-pass record of (clonee, spec) -> clone name (Section 2.3).

    "If a given clone exists in the database then it is simply reused;
    otherwise the clone must be created."

    The database also owns clone *naming*: a name, once allocated, is
    never recycled within an HLO run even if its clone is deleted as
    unreachable.  (Recycling would let a stale (spec -> name) entry
    silently resolve to a newer clone with a different signature.)
    """

    def __init__(self) -> None:
        self._entries: Dict[SpecKey, str] = {}
        self._allocated: set = set()
        self.hits = 0

    def lookup(self, key: SpecKey) -> Optional[str]:
        name = self._entries.get(key)
        if name is not None:
            self.hits += 1
        return name

    def record(self, key: SpecKey, clone_name: str) -> None:
        self._entries[key] = clone_name
        self._allocated.add(clone_name)

    def fresh_name(self, program: Program, base: str) -> str:
        """A clone name unused by the program *and* this run's history."""
        counter = 1
        while True:
            candidate = "{}.c{}".format(base, counter)
            if candidate not in self._allocated and program.proc(candidate) is None:
                self._allocated.add(candidate)
                return candidate
            counter += 1

    def __len__(self) -> int:
        return len(self._entries)

    def mark(self) -> tuple:
        """Checkpoint for stage rollback: a failed clone pass must not
        leave (spec -> name) entries pointing at clones that the IR
        rollback removed."""
        return (dict(self._entries), set(self._allocated), self.hits)

    def rollback_to(self, mark: tuple) -> None:
        entries, allocated, hits = mark
        self._entries = dict(entries)
        self._allocated = set(allocated)
        self.hits = hits


def param_usage_weights(
    proc: Procedure,
    config: HLOConfig,
    freq_cache: Optional[Dict[str, Dict[str, float]]] = None,
    rel: Optional[Dict[str, float]] = None,
) -> List[float]:
    """Interest weight per parameter position (the callee-side analysis).

    Each use of a parameter register is weighed by the profile count of
    its block relative to the routine entry (or the static heuristic
    without data), times a kind multiplier: plain data uses, uses that
    steer control flow, and — weighted highest — parameter values that
    reach the function position of an indirect call.

    ``rel`` overrides the relative block frequencies — the
    context-sensitive path hands in the callee's frequencies *as seen
    from one caller* (:func:`~repro.analysis.freq.context_block_freqs`)
    so a parameter whose uses sit in a loop that only spins for that
    caller is weighed accordingly.
    """
    if rel is None:
        rel = cached_block_freqs(proc, config.use_profile, freq_cache)
    names = {name: i for i, (name, _t) in enumerate(proc.params)}
    weights = [0.0] * len(proc.params)
    if not names:
        return weights

    for label, block in proc.blocks.items():
        block_rel = rel.get(label, 0.0)
        if block_rel <= 0.0:
            block_rel = 0.01  # unexecuted-in-training uses still count a little
        for instr in block.instrs:
            if isinstance(instr, ICall) and isinstance(instr.func, Reg):
                pos = names.get(instr.func.name)
                if pos is not None:
                    weights[pos] += INDIRECT_CALL_BONUS * block_rel
            if isinstance(instr, Branch) and isinstance(instr.cond, Reg):
                pos = names.get(instr.cond.name)
                if pos is not None:
                    weights[pos] += BRANCH_USE_WEIGHT * block_rel
            for op in instr.uses():
                if isinstance(op, Reg):
                    pos = names.get(op.name)
                    if pos is not None:
                        weights[pos] += PLAIN_USE_WEIGHT * block_rel
    return weights


def calling_context(instr: Call) -> Dict[int, Operand]:
    """Constant actuals by position — the caller-side descriptor."""
    context: Dict[int, Operand] = {}
    for pos, arg in enumerate(instr.args):
        if isinstance(arg, (Imm, FuncRef, GlobalRef)):
            context[pos] = arg
    return context


def make_clone_spec(
    site: CallSite, usage: List[float]
) -> Dict[int, Operand]:
    """Intersect caller-supplied constants with interesting parameters."""
    context = calling_context(site.instr)  # type: ignore[arg-type]
    return {
        pos: op
        for pos, op in context.items()
        if pos < len(usage) and usage[pos] > 0.0
    }


def context_matches(instr: Call, spec: Dict[int, Operand]) -> bool:
    """Does this site supply the spec's constants at the spec's positions?"""
    for pos, expected in spec.items():
        if pos >= len(instr.args):
            return False
        actual = instr.args[pos]
        if not isinstance(actual, (Imm, FuncRef, GlobalRef)):
            return False
        if operand_key(actual) != operand_key(expected):
            return False
    return True


@dataclass
class CloneGroup:
    callee: Procedure
    spec: Dict[int, Operand]
    sites: List[CallSite]
    benefit: float = 0.0
    deletes_clonee: bool = False

    @property
    def key(self) -> SpecKey:
        return spec_key(self.callee.name, self.spec)


def build_clone_groups(
    program: Program,
    graph: CallGraph,
    config: HLOConfig,
    site_counts: Optional[Dict[Tuple[str, int], int]],
    manager: "AnalysisManager",
    obs=NULL_OBSERVER,
    report: Optional[HLOReport] = None,
    pass_number: int = 0,
    context_counts=None,
) -> List[CloneGroup]:
    """Form ranked clone groups; rejected seeds land on the ledger.

    Every site iterated here gets exactly one fate: a legality /
    no-context / benefit rejection recorded immediately, or membership
    in a returned group (whose accept-or-reject decision the budget
    selection in :func:`clone_pass` records).

    ``context_counts`` (from a context-sensitive profile database's
    :meth:`~repro.profile.ProfileDatabase.context_view`) sharpens the
    benefit estimate: each member site's value is computed against the
    callee's block frequencies *as observed from that caller* rather
    than the all-callers aggregate, so a hot loop that only spins for
    one caller neither dilutes that caller's benefit nor inflates the
    others'.
    """
    counts = site_counts if config.use_profile else None
    ctx_counts = context_counts if config.use_profile else None
    entry = manager.entry_counts(counts)
    freq_cache = manager.freq_cache()
    usage_cache: Dict[str, List[float]] = {}
    ctx_usage_cache: Dict[Tuple[str, str], Optional[List[float]]] = {}
    address_taken = _address_taken(program)

    def member_value(callee: Procedure, member: CallSite, spec, aggregate: float) -> float:
        """The group value as seen from one member's caller."""
        if ctx_counts is None:
            return aggregate
        cache_key = (callee.name, member.caller.name)
        if cache_key not in ctx_usage_cache:
            rel_ctx = context_block_freqs(callee, member.caller.name, ctx_counts)
            ctx_usage_cache[cache_key] = (
                param_usage_weights(callee, config, rel=rel_ctx)
                if rel_ctx is not None
                else None
            )
        ctx_usage = ctx_usage_cache[cache_key]
        if ctx_usage is None:  # no evidence from this caller: use aggregate
            return aggregate
        return sum(ctx_usage[pos] for pos in spec)

    groups: List[CloneGroup] = []
    grouped_sites: Set[Tuple[str, int]] = set()

    for site in graph.sites:
        if site.key in grouped_sites:
            continue
        blocker = clone_blocker(
            program, site, config.cross_module, config.local_modules
        )
        if blocker is not None:
            record_decision(
                obs, report, "clone", pass_number, site, "rejected", blocker,
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
                obs, report, "clone", pass_number, site, "rejected",
                "no caller-supplied constant meets an interesting parameter",
                reason_class="benefit",
            )
            continue

        # Greedily absorb every compatible site into the group.
        members = [site]
        if config.clone_groups:
            for other in graph.callers_of(callee.name):
                if other.key == site.key or other.key in grouped_sites:
                    continue
                if clone_blocker(
                    program, other, config.cross_module, config.local_modules
                ) is not None:
                    continue
                if context_matches(other.instr, spec):  # type: ignore[arg-type]
                    members.append(other)

        value = sum(usage[pos] for pos in spec)
        benefit = sum(
            site_weight(m, entry, counts, config.use_profile, freq_cache)
            * member_value(callee, m, spec, value)
            for m in members
        )
        if benefit <= MIN_CLONE_BENEFIT:
            # Only the seed: ungrouped members get their own iteration.
            record_decision(
                obs, report, "clone", pass_number, site, "rejected",
                "benefit below threshold", reason_class="benefit",
                benefit=benefit,
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
        group = CloneGroup(callee, spec, members, benefit, deletes)
        groups.append(group)
        for m in members:
            grouped_sites.add(m.key)

    groups.sort(key=lambda g: (-g.benefit, g.callee.name))
    return groups


def _address_taken(program: Program) -> Set[str]:
    taken: Set[str] = set()
    for proc in program.all_procs():
        for instr in proc.instructions():
            for op in instr.uses():
                if isinstance(op, FuncRef):
                    taken.add(op.name)
    return taken


def clone_pass(
    program: Program,
    config: HLOConfig,
    budget: Budget,
    report: HLOReport,
    pass_number: int,
    database: CloneDatabase,
    site_counts: Optional[Dict[Tuple[str, int], int]],
    manager: "AnalysisManager",
    obs=NULL_OBSERVER,
    context_counts=None,
) -> int:
    """Run one cloning pass; returns the number of sites retargeted."""
    graph = manager.callgraph()
    groups = build_clone_groups(
        program, graph, config, site_counts, manager, obs, report, pass_number,
        context_counts=context_counts,
    )

    # Select within the stage's allotment (Figure 3: "select clones").
    stage = budget.stage_limit(pass_number)
    projected = budget.current
    accepted: List[CloneGroup] = []
    for group in groups:
        exists = config.clone_database and database.lookup(group.key) is not None
        cost = 0.0 if exists else Budget.clone_delta(
            group.callee.size(), group.deletes_clonee
        )
        if projected + cost <= stage:
            accepted.append(group)
            projected += cost
        else:
            for member in group.sites:
                record_decision(
                    obs, report, "clone", pass_number, member, "rejected",
                    "staged budget exhausted", reason_class="budget",
                    benefit=group.benefit,
                )
    # Any group not handled in this pass is discarded; it may be
    # recreated and cloned in a later pass (Section 2.3).

    from ..resilience.guard import recording

    replaced = 0
    touched: Set[str] = set()
    with recording(program) as record:
        for group_index, group in enumerate(accepted):
            if config.stop_after is not None and report.transform_count >= config.stop_after:
                for later in accepted[group_index:]:
                    for member in later.sites:
                        record_decision(
                            obs, report, "clone", pass_number, member, "rejected",
                            "stop-after limit reached", reason_class="budget",
                            benefit=later.benefit,
                        )
                break
            clone_name = database.lookup(group.key) if config.clone_database else None
            if clone_name is not None and program.proc(clone_name) is None:
                clone_name = None  # the recorded clone has since been deleted
            if clone_name is None:
                clone_name = database.fresh_name(program, group.callee.name)
                group_count = _group_traffic(group, site_counts)
                ratio = transfer_ratio(group_count, _entry_count(group.callee))
                with obs.tracer.span(
                    "clone:{}".format(clone_name) if obs.tracer.enabled else "",
                    cat="transform", clonee=group.callee.name,
                ):
                    clone = copy_into_new_proc(
                        program,
                        group.callee,
                        program.modules[group.callee.module],
                        clone_name,
                        group.spec,
                        ratio,
                        on_promote=report.record_promotion,
                    )
                    program.modules[group.callee.module].add_proc(clone)
                    program.report_added(clone)
                    subtract_moved_counts(program, group.callee, ratio)
                    report.clones += 1
                    if config.clone_database:
                        database.record(group.key, clone_name)
                    touched.add(clone_name)
                    if config.reoptimize:
                        # Optimize the clone immediately so the bound constants
                        # propagate into its own call sites before the in-clone
                        # retarget scan below (the recursive pass-through case).
                        optimize_proc(program, clone)

            for member_index, member in enumerate(group.sites):
                if config.stop_after is not None and report.transform_count >= config.stop_after:
                    for later in group.sites[member_index:]:
                        record_decision(
                            obs, report, "clone", pass_number, later, "rejected",
                            "stop-after limit reached", reason_class="budget",
                            benefit=group.benefit,
                        )
                    break
                if _retarget_site(program, member, group.spec, clone_name):
                    replaced += 1
                    record_decision(
                        obs, report, "clone", pass_number, member, "cloned",
                        "call site retargeted to clone", reason_class="accepted",
                        benefit=group.benefit,
                    )
                    report.record_clone_replacement(
                        pass_number,
                        member.caller.name,
                        clone_name,
                        member.instr.site_id,
                        group.callee.name,
                    )
                    touched.add(member.caller.name)
                else:
                    record_decision(
                        obs, report, "clone", pass_number, member, "rejected",
                        "call site changed before retargeting",
                        reason_class="mechanical",
                    )

            # The clone body may itself contain group-compatible recursive
            # sites (copied from the clonee); retarget those too so a fully
            # covered clonee really does become unreachable.  A clone reused
            # from the database predates this stage, so report it too.
            clone = program.proc(clone_name)
            if clone is not None:
                for block, index, instr in clone.call_sites():
                    if (
                        isinstance(instr, Call)
                        and instr.callee == group.callee.name
                        and context_matches(instr, group.spec)
                    ):
                        program.report_body(clone)
                        instr.callee = clone_name
                        instr.args = [
                            a for i, a in enumerate(instr.args) if i not in group.spec
                        ]
                        replaced += 1
                        report.record_clone_replacement(
                            pass_number, clone_name, clone_name, instr.site_id, group.callee.name
                        )
                        # Not a graph site (it was born with the clone this
                        # pass), but it is an evaluation with an outcome.
                        report.sites_considered += 1
                        if obs.ledger.enabled:
                            obs.ledger.record(
                                "clone", pass_number, clone_name, clone_name,
                                instr.site_id, "cloned",
                                "recursive site inside clone retargeted",
                                "accepted", group.benefit,
                            )

        if config.reoptimize:
            for name in sorted(touched):
                proc = program.proc(name)
                if proc is not None:
                    optimize_proc(program, proc)
    budget.recalibrate(program)
    # Callers retargeted, clonees whose counts migrated, the clones.
    mutated = record.mutated()
    if mutated:
        manager.invalidate_procs(mutated)
    return replaced


def _retarget_site(
    program: Program, site: CallSite, spec: Dict[int, Operand], clone_name: str
) -> bool:
    """Point one call site at the clone, editing specialized actuals out."""
    instr = site.instr
    if not isinstance(instr, Call):
        return False
    # The site may have been transformed since the graph was built;
    # verify it still calls the clonee with a matching context.
    if site.callee is None or instr.callee != site.callee.name:
        return False
    if not context_matches(instr, spec):
        return False
    program.report_body(site.caller)
    instr.callee = clone_name
    instr.args = [a for i, a in enumerate(instr.args) if i not in spec]
    return True


def _group_traffic(
    group: CloneGroup, site_counts: Optional[Dict[Tuple[str, int], int]]
) -> Optional[int]:
    if site_counts is None:
        return None
    total = 0
    seen = False
    for member in group.sites:
        if member.key in site_counts:
            total += site_counts[member.key]
            seen = True
    return total if seen else None


def _entry_count(proc: Procedure) -> Optional[int]:
    if proc.entry is None:
        return None
    block = proc.blocks.get(proc.entry)
    return block.profile_count if block is not None else None
