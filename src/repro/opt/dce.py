"""Dead-code elimination via live-register analysis.

Backward bitvector liveness over the CFG; an instruction is deleted
when it has a destination, the destination is dead after it, and the
instruction itself is effect-free.  Calls are never deleted here even
when their result is dead (that is :mod:`deadcalls`' job, which needs
interprocedural facts); stores, probes, and possibly-trapping divisions
by a non-constant divisor are also kept.
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..ir.instructions import Alloca, BinOp, Load, Mov, UnOp
from ..ir.procedure import Procedure
from ..ir.program import Program
from ..ir.values import Imm, Reg


def _effect_free(instr) -> bool:
    cls = instr.__class__
    if cls in (Mov, Load):
        return True
    if cls is UnOp:
        # ftoi of a non-finite float traps, but a front-end-typed
        # program only applies ftoi to computed floats; conversions of
        # dead values are safe to drop because the trap would be the
        # program's only observable — and C-family semantics make that
        # undefined.  We keep it simple: unops are effect-free.
        return True
    if cls is BinOp:
        if instr.op in ("div", "mod"):
            rhs = instr.rhs
            return isinstance(rhs, Imm) and rhs.value != 0
        return True
    if cls is Alloca:
        # Dropping a dead alloca only changes stack addresses, which are
        # not observable through the defined runtime interface.
        return not instr.is_dynamic
    return False


def liveness(proc: Procedure) -> Dict[str, Set[str]]:
    """Live-out register-name sets per block label.

    A predecessor worklist from empty sets: a block is revisited only
    when a successor's live-in grew.  The least fixed point is unique,
    so every block, unreachable ones included, gets the sets a
    round-robin sweep would.  Successors outside ``proc.blocks`` are
    ignored.
    """
    blocks = proc.blocks
    use: Dict[str, Set[str]] = {}
    define: Dict[str, Set[str]] = {}
    succs: Dict[str, List[str]] = {}
    preds: Dict[str, List[str]] = {label: [] for label in blocks}
    for label, block in blocks.items():
        u: Set[str] = set()
        d: Set[str] = set()
        for instr in block.instrs:
            for op in instr.uses():
                if isinstance(op, Reg) and op.name not in d:
                    u.add(op.name)
            if instr.dest is not None:
                d.add(instr.dest.name)
        use[label] = u
        define[label] = d
        targets = [s for s in dict.fromkeys(block.successors()) if s in blocks]
        succs[label] = targets
        for succ in targets:
            preds[succ].append(label)

    live_in: Dict[str, Set[str]] = {label: set() for label in blocks}
    live_out: Dict[str, Set[str]] = {}
    # Popped from the end: later blocks first, which suits a backward
    # problem.
    work = list(blocks)
    queued = set(work)
    while work:
        label = work.pop()
        queued.discard(label)
        out: Set[str] = set()
        for succ in succs[label]:
            out |= live_in[succ]
        live_out[label] = out
        new_in = use[label] | (out - define[label])
        # Sets only grow from the empty start, so a size change is a change.
        if len(new_in) != len(live_in[label]):
            live_in[label] = new_in
            for pred in preds[label]:
                if pred not in queued:
                    queued.add(pred)
                    work.append(pred)
    return live_out


def dead_code_elimination(program: Program, proc: Procedure) -> bool:
    changed = False
    live_out = liveness(proc)
    for label, block in proc.blocks.items():
        live = set(live_out[label])
        kept = []
        for instr in reversed(block.instrs):
            dest = instr.dest
            if dest is not None and dest.name not in live and _effect_free(instr):
                changed = True
                continue
            if dest is not None:
                live.discard(dest.name)
            for op in instr.uses():
                if isinstance(op, Reg):
                    live.add(op.name)
            kept.append(instr)
        kept.reverse()
        block.instrs = kept
    return changed
