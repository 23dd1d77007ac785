"""Analysis memoization with explicit invalidation.

The HLO driver is a *multi-pass* loop: every clone stage, inline
stage, and unreachable-routine sweep historically rebuilt the program
call graph, re-propagated entry counts, and re-derived per-procedure
block frequencies from scratch — even when the preceding stage changed
nothing (common in late passes, whose budget stages mostly reject).

:class:`AnalysisManager` caches those results and makes invalidation
the *transform's* responsibility: the inliner and cloner invalidate
exactly the procedures their stage's mutation record names (callers
spliced into, clonees whose counts were migrated, freshly created
clones; :class:`~repro.resilience.guard.MutationRecord`), and only
those entries — plus the program-level analyses, which any mutation
can perturb — are dropped.  A stage that performs zero transforms
leaves every cache warm for the next one.

Correctness contract: a cached result is returned only while the IR it
was derived from is unchanged.  Anything that mutates procedures
outside the inliner/cloner protocol (scalar re-optimization stages, a
global stage's rollback, which replaces the blocks of what it
restores) must call :meth:`invalidate_all`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from ..ir.program import Program
from .callgraph import CallGraph
from .freq import entry_counts as _entry_counts

SiteCounts = Dict[Tuple[str, int], int]


class AnalysisManager:
    """Per-HLO-run cache of call graph, entry counts, and block freqs."""

    def __init__(self, program: Program):
        self.program = program
        self._graph: Optional[CallGraph] = None
        # Keyed by whether measured site counts were applied; within
        # one HLO run the site-count table itself never changes.
        self._entry: Dict[bool, Dict[str, float]] = {}
        # proc name -> relative block frequencies; shared with the
        # passes' ``cached_block_freqs`` helper, which fills it lazily.
        self._freqs: Dict[str, Dict[str, float]] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    # Cached analyses
    # ------------------------------------------------------------------

    def callgraph(self) -> CallGraph:
        if self._graph is None:
            self.misses += 1
            self._graph = CallGraph(self.program)
        else:
            self.hits += 1
        return self._graph

    def entry_counts(self, site_counts: Optional[SiteCounts]) -> Dict[str, float]:
        key = site_counts is not None
        cached = self._entry.get(key)
        if cached is None:
            graph = self.callgraph()
            self.misses += 1
            cached = _entry_counts(self.program, graph, site_counts)
            self._entry[key] = cached
        else:
            self.hits += 1
        return cached

    def freq_cache(self) -> Dict[str, Dict[str, float]]:
        """The shared per-procedure block-frequency memo table."""
        return self._freqs

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------

    def invalidate_procs(self, names: Iterable[str]) -> None:
        """IR changed inside ``names``: drop their entries and every
        program-level analysis (any mutation can reshape the graph)."""
        self.invalidations += 1
        self._graph = None
        self._entry.clear()
        for name in names:
            self._freqs.pop(name, None)

    def invalidate_all(self) -> None:
        """Drop everything — the blunt hammer for stages that cannot
        enumerate what they touched (scalar pipelines, rollbacks)."""
        self.invalidations += 1
        self._graph = None
        self._entry.clear()
        self._freqs.clear()
