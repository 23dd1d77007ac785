"""Constant propagation as it was before its kernels were rewritten.

This is :func:`repro.opt.constprop.constant_propagation` before the
in-place transfer step and the change-driven dataflow: every round
re-merges and re-transfers every block, and the rewrite copies the
whole register lattice for each instruction it steps over.
``tests/opt/test_constprop_oracle.py`` asserts that the production
pass rewrites every procedure of real builds exactly as this one does;
the two differ only on a procedure that folds a NaN (see the production
module's docstring).  Apart from its imports and one fix that the
production pass shares (nothing is rewritten unless the dataflow
converged within its round bound), this module is the old one.
"""

from __future__ import annotations

from typing import Dict, Union

from repro.ir.instructions import Alloca, BinOp, Branch, Call, ICall, Jump, Load, Mov, UnOp
from repro.ir.ops import EvalError, eval_binop, eval_unop
from repro.ir.procedure import Procedure
from repro.ir.program import Program
from repro.ir.types import Type
from repro.ir.values import FuncRef, GlobalRef, Imm, Operand, Reg

# Lattice values: None = NAC; the _Undef sentinel = unknown-yet; an
# operand (Imm/FuncRef/GlobalRef) = known constant.
_UNDEF = object()
Lattice = Union[None, object, Imm, FuncRef, GlobalRef]


def _meet(a: Lattice, b: Lattice) -> Lattice:
    if a is _UNDEF:
        return b
    if b is _UNDEF:
        return a
    if a is None or b is None:
        return None
    return a if a == b else None


def _transfer(block, state: Dict[str, Lattice]) -> Dict[str, Lattice]:
    """Apply one block's instructions to a copy of ``state``."""
    out = dict(state)

    def value_of(op: Operand) -> Lattice:
        if isinstance(op, Reg):
            return out.get(op.name, _UNDEF)
        return op  # Imm / FuncRef / GlobalRef are constants

    for instr in block.instrs:
        cls = instr.__class__
        if cls is Mov:
            out[instr.dest.name] = value_of(instr.src)
        elif cls is BinOp:
            out[instr.dest.name] = _fold_binop(instr.op, value_of(instr.lhs), value_of(instr.rhs))
        elif cls is UnOp:
            out[instr.dest.name] = _fold_unop(instr.op, value_of(instr.src))
        elif instr.dest is not None:  # Load, Call, ICall, Alloca
            out[instr.dest.name] = None
    return out


def _fold_binop(op: str, lhs: Lattice, rhs: Lattice) -> Lattice:
    if lhs is _UNDEF or rhs is _UNDEF:
        return _UNDEF
    if lhs is None or rhs is None:
        return None
    if isinstance(lhs, FuncRef) and isinstance(rhs, FuncRef):
        if op == "eq":
            return Imm(1 if lhs.name == rhs.name else 0)
        if op == "ne":
            return Imm(0 if lhs.name == rhs.name else 1)
        return None
    if not isinstance(lhs, Imm) or not isinstance(rhs, Imm):
        return None  # address arithmetic on globals stays symbolic
    try:
        value = eval_binop(op, lhs.value, rhs.value)
    except (EvalError, TypeError):
        return None  # e.g. division by a constant zero: keep the trap
    if isinstance(value, float):
        return Imm(value, Type.FLT)
    return Imm(value)


def _fold_unop(op: str, src: Lattice) -> Lattice:
    if src is _UNDEF:
        return _UNDEF
    if not isinstance(src, Imm):
        return None
    try:
        value = eval_unop(op, src.value)
    except (EvalError, TypeError):
        return None
    if isinstance(value, float):
        return Imm(value, Type.FLT)
    return Imm(value)


def constant_propagation(program: Program, proc: Procedure) -> bool:
    """Run the analysis and rewrite; returns True when IR changed."""
    labels = proc.rpo_labels()
    if not labels:
        return False
    preds = proc.predecessors()

    # Dataflow to fixpoint.
    ins: Dict[str, Dict[str, Lattice]] = {}
    outs: Dict[str, Dict[str, Lattice]] = {}
    entry_state: Dict[str, Lattice] = {name: None for name, _ in proc.params}
    changed = True
    rounds = 0
    while changed and rounds < 50:
        changed = False
        rounds += 1
        for label in labels:
            if label == proc.entry:
                in_state = dict(entry_state)
            else:
                in_state = {}
                merged: Dict[str, Lattice] = {}
                first = True
                for pred in preds[label]:
                    pstate = outs.get(pred)
                    if pstate is None:
                        continue
                    if first:
                        merged = dict(pstate)
                        first = False
                    else:
                        keys = set(merged) | set(pstate)
                        merged = {
                            k: _meet(merged.get(k, _UNDEF), pstate.get(k, _UNDEF))
                            for k in keys
                        }
                if first:
                    merged = {}
                in_state = merged
            if ins.get(label) != in_state:
                ins[label] = in_state
                changed = True
            out_state = _transfer(proc.blocks[label], in_state)
            if outs.get(label) != out_state:
                outs[label] = out_state
                changed = True
    if changed:
        return False  # the round bound cut the dataflow short

    # Rewrite using the in-states.
    rewritten = False
    for label in labels:
        state = dict(ins.get(label, {}))
        block = proc.blocks[label]
        new_instrs = []
        for instr in block.instrs:
            def subst(op: Operand) -> Operand:
                nonlocal rewritten
                if isinstance(op, Reg):
                    known = state.get(op.name, _UNDEF)
                    if isinstance(known, (Imm, FuncRef, GlobalRef)):
                        rewritten = True
                        return known
                return op

            instr.map_operands(subst)

            replacement = instr
            cls = instr.__class__
            if cls is BinOp:
                folded = _fold_binop(
                    instr.op,
                    instr.lhs if not isinstance(instr.lhs, Reg) else state.get(instr.lhs.name, _UNDEF),
                    instr.rhs if not isinstance(instr.rhs, Reg) else state.get(instr.rhs.name, _UNDEF),
                )
                if isinstance(folded, (Imm, FuncRef, GlobalRef)):
                    replacement = Mov(instr.dest, folded)
                    rewritten = True
            elif cls is UnOp:
                folded = _fold_unop(
                    instr.op,
                    instr.src if not isinstance(instr.src, Reg) else state.get(instr.src.name, _UNDEF),
                )
                if isinstance(folded, (Imm, FuncRef, GlobalRef)):
                    replacement = Mov(instr.dest, folded)
                    rewritten = True
            elif cls is Branch and isinstance(instr.cond, Imm):
                target = instr.then_target if instr.cond.value else instr.else_target
                replacement = Jump(target)
                rewritten = True
                proc.drop_cfg_facts()
            elif cls is ICall and isinstance(instr.func, FuncRef):
                # Devirtualization: a constant code pointer reached the
                # function position (Section 3.1's staged optimization).
                replacement = instr.to_direct()
                rewritten = True

            # Track state forward within the block for subsequent instrs.
            state = _transfer_one(replacement, state)
            new_instrs.append(replacement)
        block.instrs = new_instrs
    return rewritten


def _transfer_one(instr, state: Dict[str, Lattice]) -> Dict[str, Lattice]:
    class _OneBlock:
        instrs = [instr]

    return _transfer(_OneBlock, state)
