"""Call graph construction and call-site classification.

Figure 5 of the paper classifies every static call site into five
categories: external, indirect, cross-module, within-module (cross-
routine), and recursive.  This module builds the program call graph,
computes SCCs (recursion regions), classifies each site, and provides
the bottom-up traversal order the inliner schedules against.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..ir.basicblock import BasicBlock
from ..ir.instructions import Call, ICall, Instr
from ..ir.procedure import Procedure
from ..ir.program import Program

# Site categories (Figure 5).
EXTERNAL = "external"
INDIRECT = "indirect"
CROSS_MODULE = "cross-module"
WITHIN_MODULE = "within-module"
RECURSIVE = "recursive"

CATEGORIES = (EXTERNAL, INDIRECT, CROSS_MODULE, WITHIN_MODULE, RECURSIVE)


class CallSite:
    """One static call site in the program."""

    __slots__ = ("caller", "block", "index", "instr", "callee", "category")

    def __init__(
        self,
        caller: Procedure,
        block: BasicBlock,
        index: int,
        instr: Instr,
        callee: Optional[Procedure],
        category: str,
    ):
        self.caller = caller
        self.block = block
        self.index = index
        self.instr = instr
        self.callee = callee  # None for indirect/external sites
        self.category = category

    @property
    def site_id(self) -> int:
        return self.instr.site_id

    @property
    def key(self) -> Tuple[str, int]:
        """Profile-database key for this site."""
        return (self.caller.module, self.instr.site_id)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        target = self.callee.name if self.callee else "?"
        return "<CallSite @{} -> @{} [{}] #{}>".format(
            self.caller.name, target, self.category, self.instr.site_id
        )


class CallGraph:
    """The program call graph over *defined* procedures.

    ``sites`` lists every static call site (including external and
    indirect ones, which have no graph edge).  ``edges[name]`` lists the
    sites whose resolved callee is ``name``.
    """

    def __init__(self, program: Program):
        self.program = program
        self.sites: List[CallSite] = []
        self._callees: Dict[str, List[CallSite]] = {}  # caller -> its sites
        self._callers: Dict[str, List[CallSite]] = {}  # callee -> incoming sites
        self._scc_id: Dict[str, int] = {}
        self._sccs: List[List[str]] = []
        self._build()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _build(self) -> None:
        program = self.program
        defined = {p.name: p for p in program.all_procs()}
        raw_edges: Dict[str, List[str]] = {name: [] for name in defined}

        pending: List[Tuple[Procedure, BasicBlock, int, Instr, Optional[Procedure]]] = []
        for proc in program.all_procs():
            self._callees.setdefault(proc.name, [])
            for block, index, instr in proc.call_sites():
                callee: Optional[Procedure] = None
                if isinstance(instr, Call):
                    callee = defined.get(instr.callee)
                    if callee is not None:
                        raw_edges[proc.name].append(callee.name)
                pending.append((proc, block, index, instr, callee))

        self._compute_sccs(defined, raw_edges)

        for proc, block, index, instr, callee in pending:
            category = self._classify(proc, instr, callee)
            site = CallSite(proc, block, index, instr, callee, category)
            self.sites.append(site)
            self._callees[proc.name].append(site)
            if callee is not None:
                self._callers.setdefault(callee.name, []).append(site)

    def _classify(self, caller: Procedure, instr: Instr, callee: Optional[Procedure]) -> str:
        if isinstance(instr, ICall):
            return INDIRECT
        if callee is None:
            return EXTERNAL
        if self._scc_id.get(caller.name) == self._scc_id.get(callee.name):
            return RECURSIVE
        if caller.module != callee.module:
            return CROSS_MODULE
        return WITHIN_MODULE

    def _compute_sccs(self, defined: Dict[str, Procedure], edges: Dict[str, List[str]]) -> None:
        """Iterative Tarjan over direct-call edges.

        A procedure alone in its SCC with no self edge forms a trivial
        SCC; self-recursive procedures get their own nontrivial SCC.
        """
        index_of: Dict[str, int] = {}
        low: Dict[str, int] = {}
        on_stack: Dict[str, bool] = {}
        stack: List[str] = []
        counter = [0]

        # Self-loops must make a node's SCC "recursive"; Tarjan handles
        # this naturally since classification compares SCC ids — a self
        # edge yields caller == callee, same id.

        for root in defined:
            if root in index_of:
                continue
            work: List[Tuple[str, Iterator[str]]] = [(root, iter(edges[root]))]
            index_of[root] = low[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack[root] = True
            while work:
                node, it = work[-1]
                advanced = False
                for succ in it:
                    if succ not in index_of:
                        index_of[succ] = low[succ] = counter[0]
                        counter[0] += 1
                        stack.append(succ)
                        on_stack[succ] = True
                        work.append((succ, iter(edges[succ])))
                        advanced = True
                        break
                    if on_stack.get(succ):
                        low[node] = min(low[node], index_of[succ])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index_of[node]:
                    scc: List[str] = []
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        scc.append(member)
                        if member == node:
                            break
                    scc_index = len(self._sccs)
                    self._sccs.append(scc)
                    for member in scc:
                        self._scc_id[member] = scc_index

        # Distinguish trivial SCCs from self-recursive singletons: a
        # singleton with no self edge should NOT classify its intra-SCC
        # calls as recursive (there are none), but a self edge should.
        # Classification naturally handles this because a direct call
        # A -> A compares equal SCC ids regardless.

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def sites_in(self, proc_name: str) -> List[CallSite]:
        return list(self._callees.get(proc_name, []))

    def callers_of(self, proc_name: str) -> List[CallSite]:
        return list(self._callers.get(proc_name, []))

    def scc_of(self, proc_name: str) -> List[str]:
        scc_id = self._scc_id.get(proc_name)
        if scc_id is None:
            return [proc_name]
        return list(self._sccs[scc_id])

    def in_cycle(self, proc_name: str) -> bool:
        """True when the procedure participates in recursion."""
        scc = self.scc_of(proc_name)
        if len(scc) > 1:
            return True
        return any(
            site.callee is not None and site.callee.name == proc_name
            for site in self.sites_in(proc_name)
        )

    def bottom_up_order(self) -> List[str]:
        """Procedure names ordered callees-first (SCC condensation order).

        Tarjan emits SCCs in reverse topological order of the
        condensation — exactly callees-first — so we flatten that.
        """
        order: List[str] = []
        for scc in self._sccs:
            order.extend(sorted(scc))
        return order

    def category_counts(self) -> Dict[str, int]:
        """Static call-site mix — one row of Figure 5."""
        counts = {cat: 0 for cat in CATEGORIES}
        for site in self.sites:
            counts[site.category] += 1
        return counts

    def reachable_from(
        self, roots: List[str], takers_are_roots: bool = False
    ) -> List[str]:
        """Procedures reachable from ``roots`` via direct calls and
        address-taken references (a FuncRef anywhere keeps a procedure
        alive, since an indirect call might reach it).

        With ``takers_are_roots``, a procedure holding a FuncRef is a
        root too, so the references it holds outlive it.
        """
        from ..ir.values import FuncRef

        address_taken = set()
        for proc in self.program.all_procs():
            takes = False
            for instr in proc.instructions():
                for op in instr.uses():
                    if isinstance(op, FuncRef):
                        address_taken.add(op.name)
                        takes = True
            if takes and takers_are_roots:
                address_taken.add(proc.name)

        seen: set = set()
        work = [r for r in roots if self.program.proc(r) is not None]
        work.extend(n for n in address_taken if self.program.proc(n) is not None)
        while work:
            name = work.pop()
            if name in seen:
                continue
            seen.add(name)
            for site in self.sites_in(name):
                if site.callee is not None and site.callee.name not in seen:
                    work.append(site.callee.name)
        return sorted(seen)
