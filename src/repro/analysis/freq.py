"""Execution frequency estimation.

The inline/clone heuristics consume two frequency notions (Section 2.4):

- **relative** block frequency within a procedure — the count of a block
  relative to the routine entry.  "Sites that occur in blocks executed
  less frequently than the routine entry block are assigned a penalty."
  With PBO data this is the measured ratio; without it, the loop-depth
  heuristic guesses (10x per nesting level, halved per dominating
  conditional is approximated simply by branch fan-out splitting).
- **absolute** call-site weight across the program — used to rank inline
  candidates program-wide.  With PBO data these are measured call-site
  counts; without, we propagate an entry count of 1 from ``main``
  through the call graph to a damped fixed point.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..ir.procedure import Procedure
from ..ir.program import Program
from .callgraph import CallGraph
from .loops import loop_depths

LOOP_MULTIPLIER = 10.0
MAX_PROPAGATION_ROUNDS = 10
RECURSION_DAMPING = 0.5


def static_block_freqs(proc: Procedure) -> Dict[str, float]:
    """Heuristic per-block frequency relative to entry (entry = 1.0).

    freq(b) = LOOP_MULTIPLIER ** depth(b) * branch_factor(b), where the
    branch factor splits flow evenly at conditionals and propagates only
    between blocks at the *same* loop depth.  Crossing a depth boundary
    (entering or leaving a loop) resets the factor to 1, so code after a
    loop is estimated at entry frequency again rather than inheriting
    the loop's amplification.  This is intentionally a heuristic in the
    paper's spirit ("without such data it uses heuristics to guess at
    the relative importance").  The map is kept in the procedure's CFG
    record, shared and read-only.
    """
    facts = proc.cfg_facts()
    if facts.static_freqs is None:
        facts.static_freqs = _static_block_freqs(proc)
    return facts.static_freqs


def _static_block_freqs(proc: Procedure) -> Dict[str, float]:
    depths = loop_depths(proc)
    factors: Dict[str, float] = {}
    preds = proc.predecessors()
    rpo = proc.rpo_labels()
    for label in rpo:
        if label == proc.entry:
            factors[label] = 1.0
            continue
        flow = 0.0
        seen_forward_same_depth = False
        for pred in preds[label]:
            if depths.get(pred) != depths[label]:
                continue  # depth boundary: contributes a reset, not flow
            if pred not in factors:
                continue  # back edge: handled by the loop multiplier
            seen_forward_same_depth = True
            succs = proc.blocks[pred].successors()
            flow += factors[pred] / max(len(set(succs)), 1)
        if not seen_forward_same_depth:
            flow = 1.0  # entered a new depth region (loop header or exit)
        factors[label] = min(max(flow, 1e-6), 1.0)
    return {
        label: (LOOP_MULTIPLIER ** depths[label]) * factor
        for label, factor in factors.items()
    }


def profile_block_freqs(proc: Procedure) -> Optional[Dict[str, float]]:
    """Measured per-block frequency relative to entry, if annotated."""
    entry_block = proc.blocks.get(proc.entry) if proc.entry else None
    if entry_block is None or entry_block.profile_count is None:
        return None
    entry_count = max(entry_block.profile_count, 1)
    freqs: Dict[str, float] = {}
    for label, block in proc.blocks.items():
        count = block.profile_count
        freqs[label] = (count / entry_count) if count is not None else 0.0
    return freqs


def block_freqs(proc: Procedure, use_profile: bool = True) -> Dict[str, float]:
    """Relative block frequencies, preferring profile data when present."""
    if use_profile:
        measured = profile_block_freqs(proc)
        if measured is not None:
            return measured
    return static_block_freqs(proc)


def entry_counts(
    program: Program,
    graph: CallGraph,
    site_counts: Optional[Dict[Tuple[str, int], int]] = None,
) -> Dict[str, float]:
    """Absolute entry count per procedure.

    With measured ``site_counts`` (keyed by ``(module, site_id)``) the
    entry count is simply the sum of counts of incoming sites (plus 1
    for ``main``).  Without, propagate static estimates from ``main``
    through the call graph, damping recursive edges so the fixed point
    converges.
    """
    counts: Dict[str, float] = {p.name: 0.0 for p in program.all_procs()}
    if "main" in counts:
        counts["main"] = 1.0

    if site_counts is not None:
        for name in counts:
            incoming = graph.callers_of(name)
            total = sum(site_counts.get(site.key, 0) for site in incoming)
            if name == "main":
                total = max(total, 1)
            counts[name] = float(total)
        return counts

    # Each site's frequency relative to its caller's entry, read once.
    edges = [
        (
            site.caller.name,
            site.callee.name,
            static_block_freqs(site.caller).get(site.block.label, 0.0),
            site.category == "recursive",
        )
        for site in graph.sites
        if site.callee is not None
    ]
    for _ in range(MAX_PROPAGATION_ROUNDS):
        new_counts = {name: 0.0 for name in counts}
        if "main" in new_counts:
            new_counts["main"] = 1.0
        for caller, callee, rel, recursive in edges:
            weight = counts[caller] * rel
            if recursive:
                weight *= RECURSION_DAMPING
            new_counts[callee] += weight
        delta = max(
            abs(new_counts[n] - counts[n]) for n in counts
        ) if counts else 0.0
        counts = new_counts
        if delta < 1e-9:
            break
    return counts


def cached_block_freqs(
    proc: Procedure,
    use_profile: bool,
    cache: Optional[Dict[str, Dict[str, float]]],
) -> Dict[str, float]:
    """Relative block frequencies, memoized per procedure name."""
    if cache is None:
        return block_freqs(proc, use_profile=use_profile)
    freqs = cache.get(proc.name)
    if freqs is None:
        freqs = block_freqs(proc, use_profile=use_profile)
        cache[proc.name] = freqs
    return freqs


def site_weight(
    site,
    entry: Dict[str, float],
    site_counts: Optional[Dict[Tuple[str, int], int]] = None,
    use_profile: bool = True,
    freq_cache: Optional[Dict[str, Dict[str, float]]] = None,
) -> float:
    """Absolute execution weight of one call site.

    ``freq_cache`` is the run's block-frequency memo
    (:meth:`~repro.analysis.manager.AnalysisManager.freq_cache`); an
    unmeasured site's relative frequency is read from it, and computed
    into it on a miss.
    """
    if use_profile and site_counts is not None and site.key in site_counts:
        return float(site_counts[site.key])
    freqs = cached_block_freqs(site.caller, use_profile, freq_cache)
    return entry.get(site.caller.name, 0.0) * freqs.get(site.block.label, 0.0)


def context_block_freqs(
    proc: Procedure,
    caller: str,
    context_counts: Dict[Tuple[str, str], Dict[Tuple[str, ...], int]],
) -> Optional[Dict[str, float]]:
    """Per-block frequency of ``proc`` *when called from* ``caller``.

    ``context_counts`` is a sampled profile's context attribution
    (``(proc, label) -> {calling context -> estimated count}``, nearest
    caller first — see :mod:`repro.sampling`).  Selecting the contexts
    whose nearest caller is ``caller`` isolates the procedure's
    behaviour along that edge: a callee whose hot loop only spins for
    one of its callers shows entry-relative frequencies under that
    caller that the context-blind aggregate dilutes away.  Returns
    ``None`` when the entry block carries no evidence for this caller
    (the consumer falls back to the aggregate estimate).
    """
    if proc.entry is None:
        return None

    def in_context(key: Tuple[str, str]) -> float:
        total = 0.0
        for ctx, count in context_counts.get(key, {}).items():
            if ctx and ctx[0] == caller:
                total += count
        return total

    entry_count = in_context((proc.name, proc.entry))
    if entry_count <= 0.0:
        return None
    return {
        label: in_context((proc.name, label)) / entry_count
        for label in proc.blocks
    }
