"""Interprocedural dead-call elimination.

Removes calls whose result is unused when the callee is provably
side-effect-free and terminating (see
:mod:`repro.analysis.sideeffects`).  This runs *before* inlining in the
HLO pipeline — it is the analysis that deleted the no-op curses calls
in the paper's 072.sc, which "would be ideal candidates for inlining,
but they are eliminated before inlining" (Section 3.1).
"""

from __future__ import annotations

from typing import Set

from ..analysis.callgraph import CallGraph
from ..analysis.sideeffects import side_effect_free_procs
from ..ir.instructions import Call
from ..ir.procedure import Procedure
from ..ir.program import Program
from ..ir.values import Reg
from .dce import liveness


def eliminate_dead_calls(program: Program) -> bool:
    graph = CallGraph(program)
    free = side_effect_free_procs(program, graph)
    if not free:
        return False
    changed = False
    for proc in program.all_procs():
        if _eliminate_in_proc(proc, free):
            changed = True
    return changed


def _eliminate_in_proc(proc: Procedure, free: Set[str]) -> bool:
    changed = False
    live_out = liveness(proc)
    for label, block in proc.blocks.items():
        live = set(live_out[label])
        kept = []
        for instr in reversed(block.instrs):
            if isinstance(instr, Call) and instr.callee in free:
                dead_result = instr.dest is None or instr.dest.name not in live
                if dead_result:
                    changed = True
                    proc.at_fixed_point = False
                    continue
            if instr.dest is not None:
                live.discard(instr.dest.name)
            for op in instr.uses():
                if isinstance(op, Reg):
                    live.add(op.name)
            kept.append(instr)
        kept.reverse()
        block.instrs = kept
    return changed
