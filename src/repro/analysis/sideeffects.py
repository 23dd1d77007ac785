"""Interprocedural side-effect analysis.

Section 3.1's 072.sc anecdote: a special curses library whose calls do
nothing is eliminated before inlining "because HLO's interprocedural
analysis determines that they have no side effect."  This module
reproduces that analysis.

A procedure is *removable at an unused call site* when executing it can
have no observable effect and it provably terminates.  We use a simple
but sound recipe:

- no stores to memory,
- no calls to side-effecting builtins (printing, exit, heap growth),
- no indirect calls and no calls to externs,
- only calls to procedures that are themselves removable,
- an acyclic CFG and no recursion (termination proof).

The analysis runs bottom-up over the call-graph SCC condensation;
procedures in cyclic SCCs are conservatively not removable.
"""

from __future__ import annotations

from typing import Dict, Set

from ..ir.instructions import Call, ICall, Store
from ..ir.procedure import Procedure
from ..ir.program import Program
from .callgraph import CallGraph
from .loops import find_loops

# Builtins whose execution is unobservable (pure reads of run state).
PURE_BUILTINS = frozenset(["input", "input_len", "abs", "va_arg", "va_count"])


def side_effect_free_procs(program: Program, graph: CallGraph) -> Set[str]:
    """Names of procedures that are removable when their result is unused."""
    free: Dict[str, bool] = {}

    for name in graph.bottom_up_order():
        proc = program.proc(name)
        if proc is None:
            continue
        free[name] = _proc_is_free(program, graph, proc, free)
    return {name for name, ok in free.items() if ok}


def _proc_is_free(
    program: Program, graph: CallGraph, proc: Procedure, free: Dict[str, bool]
) -> bool:
    if graph.in_cycle(proc.name):
        return False
    for instr in proc.instructions():
        if isinstance(instr, Store):
            return False
        if isinstance(instr, ICall):
            return False
        if isinstance(instr, Call):
            callee = instr.callee
            if program.is_defined(callee):
                if not free.get(callee, False):
                    return False
            elif callee not in PURE_BUILTINS:
                return False
    # Last: the only check that reads the CFG.  A back edge (one whose
    # target dominates its source) is what makes a natural loop.
    return not find_loops(proc)
