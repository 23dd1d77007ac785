"""Loop-invariant code motion.

Hoists pure, non-trapping computations whose operands do not change
inside a natural loop into a preheader block.  Inlining feeds this
pass: a callee body spliced into a loop often recomputes values per
iteration that were per-call before.

Soundness in this non-SSA IR rests on three restrictions:

- only ``mov``/``unop``(except ``ftoi``)/non-trapping ``binop`` hoist —
  the hoisted instruction may now execute when the loop body would not
  have, so it must be incapable of trapping;
- the destination register must have exactly **one** definition in the
  entire procedure (so no other definition can reach any of its uses,
  inside or outside the loop);
- every register operand must be defined outside the loop, or itself be
  a hoisted invariant.

The preheader is created on demand: a fresh block that all non-back-
edge predecessors of the header are retargeted to.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..analysis.loops import Loop, find_loops
from ..ir.basicblock import BasicBlock
from ..ir.instructions import BinOp, Instr, Jump, Mov, UnOp
from ..ir.procedure import Procedure
from ..ir.program import Program
from ..ir.values import Imm, Reg

_HOISTABLE_UNOPS = frozenset(["neg", "not", "lnot", "itof"])


def _non_trapping(instr: Instr) -> bool:
    cls = instr.__class__
    if cls is Mov:
        return True
    if cls is UnOp:
        return instr.op in _HOISTABLE_UNOPS
    if cls is BinOp:
        if instr.op in ("div", "mod"):
            rhs = instr.rhs
            return isinstance(rhs, Imm) and rhs.value != 0
        return True
    return False


def _definition_counts(proc: Procedure) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for instr in proc.instructions():
        if instr.dest is not None:
            counts[instr.dest.name] = counts.get(instr.dest.name, 0) + 1
    return counts


def _ensure_preheader(proc: Procedure, loop: Loop) -> Optional[str]:
    """The unique outside-the-loop predecessor of the header, creating a
    forwarding block when needed.  Returns its label, or None if the
    header is the procedure entry (no outside edge to split)."""
    preds = proc.predecessors()
    outside = [p for p in preds.get(loop.header, []) if p not in loop.body]
    if not outside:
        return None
    if len(outside) == 1:
        block = proc.blocks[outside[0]]
        term = block.terminator
        if isinstance(term, Jump):
            return outside[0]
    # Retarget first: adding the block then drops the CFG facts after
    # every write.
    preheader = proc.new_label("preheader")
    mapping = {loop.header: preheader}
    for label in outside:
        proc.blocks[label].terminator.retarget(mapping)
    # Executes once per loop entry; leave its count unmeasured rather
    # than inheriting the header's per-iteration count.
    proc.add_block(BasicBlock(preheader, [Jump(loop.header)]))
    return preheader


def licm(program: Program, proc: Procedure) -> bool:
    """Hoist invariants out of every natural loop; True when IR changed."""
    loops = find_loops(proc)
    if not loops:
        return False
    # Inner loops first (smaller bodies), so invariants can percolate
    # outward across repeated pipeline iterations.  A sorted copy: the
    # list find_loops returns is shared.
    loops = sorted(loops, key=lambda l: len(l.body))
    changed = False
    for loop in loops:
        if _hoist_from_loop(proc, loop):
            changed = True
    return changed


def _hoist_from_loop(proc: Procedure, loop: Loop) -> bool:
    def_counts = _definition_counts(proc)
    params = {name for name, _t in proc.params}

    # Registers defined anywhere inside the loop.
    defined_in_loop: Set[str] = set()
    for label in loop.body:
        block = proc.blocks.get(label)
        if block is None:
            return False
        for instr in block.instrs:
            if instr.dest is not None:
                defined_in_loop.add(instr.dest.name)

    # Fixpoint: find invariant, single-def, non-trapping instructions.
    invariant: List[Tuple[str, Instr]] = []
    invariant_regs: Set[str] = set()
    grew = True
    while grew:
        grew = False
        for label in sorted(loop.body):
            for instr in proc.blocks[label].instrs:
                dest = instr.dest
                if dest is None or dest.name in invariant_regs:
                    continue
                if instr.is_terminator or not _non_trapping(instr):
                    continue
                if def_counts.get(dest.name, 0) != 1 or dest.name in params:
                    continue
                ok = True
                for op in instr.uses():
                    if isinstance(op, Reg):
                        if op.name in invariant_regs:
                            continue
                        if op.name in defined_in_loop:
                            ok = False
                            break
                if ok:
                    invariant.append((label, instr))
                    invariant_regs.add(dest.name)
                    grew = True

    if not invariant:
        return False
    preheader_label = _ensure_preheader(proc, loop)
    if preheader_label is None:
        return False
    preheader = proc.blocks[preheader_label]

    # Hoist in discovery order (dependencies were discovered first),
    # inserting before the preheader's terminator.
    hoisted_set = {id(instr) for _l, instr in invariant}
    for label in loop.body:
        block = proc.blocks[label]
        block.instrs = [i for i in block.instrs if id(i) not in hoisted_set]
    insert_at = len(preheader.instrs) - 1
    for _label, instr in invariant:
        preheader.instrs.insert(insert_at, instr)
        insert_at += 1
    return True
