"""Natural loop discovery and per-block loop depth.

Back edges are CFG edges whose target dominates their source; each back
edge's natural loop is the set of blocks that can reach the edge source
without passing through the header.  Loop depth drives the static
frequency heuristic (a block nested two loops deep is presumed to run
about 10^2 times per procedure entry).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..ir.procedure import Procedure
from .dominators import dominates, immediate_dominators


class Loop:
    """One natural loop: a header and its body block labels."""

    __slots__ = ("header", "body")

    def __init__(self, header: str, body: Set[str]):
        self.header = header
        self.body = body

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<Loop header={} |body|={}>".format(self.header, len(self.body))


def find_loops(proc: Procedure) -> List[Loop]:
    """All natural loops, loops with a shared header merged.

    The list is kept in the procedure's CFG record, shared and
    read-only: a caller that reorders it sorts a copy.
    """
    facts = proc.cfg_facts()
    if facts.loops is None:
        facts.loops = _find_loops(proc) if _may_loop(proc) else []
    return facts.loops


def _may_loop(proc: Procedure) -> bool:
    """False when no reachable edge retreats in reverse postorder.

    A natural loop needs a back edge, and a back edge's target
    dominates its source, so it sits at or before the source in any
    reverse postorder: without such an edge there is no loop, and no
    need for the dominators.
    """
    position = {label: i for i, label in enumerate(proc.rpo_labels())}
    blocks = proc.blocks
    for label, index in position.items():
        for succ in blocks[label].successors():
            target = position.get(succ)
            if target is not None and target <= index:
                return True
    return False


def _find_loops(proc: Procedure) -> List[Loop]:
    idom = immediate_dominators(proc)
    preds = proc.predecessors()
    reachable = set(idom)
    by_header: Dict[str, Set[str]] = {}

    for label in reachable:
        for succ in proc.blocks[label].successors():
            if succ in reachable and dominates(idom, succ, label):
                body = _natural_loop(proc, preds, succ, label)
                by_header.setdefault(succ, set()).update(body)

    return [Loop(header, body) for header, body in sorted(by_header.items())]


def _natural_loop(
    proc: Procedure, preds: Dict[str, List[str]], header: str, latch: str
) -> Set[str]:
    body = {header, latch}
    work = [latch]
    while work:
        label = work.pop()
        if label == header:
            continue
        for pred in preds.get(label, []):
            if pred not in body:
                body.add(pred)
                work.append(pred)
    return body


def loop_depths(proc: Procedure) -> Dict[str, int]:
    """Loop-nesting depth for every reachable block (0 = not in a loop).

    Nesting is inferred from body containment: a loop nested in another
    has a strictly smaller body contained in the outer body.
    """
    loops = find_loops(proc)
    depths = {label: 0 for label in proc.reachable_labels()}
    for label in depths:
        depths[label] = sum(1 for loop in loops if label in loop.body)
    return depths


def loop_stats(proc: Procedure) -> Tuple[int, int]:
    """(number of loops, maximum nesting depth) for reporting."""
    loops = find_loops(proc)
    depths = loop_depths(proc)
    return len(loops), max(depths.values()) if depths else 0
