"""Conditional constant propagation.

A forward dataflow over the register-constancy lattice
(UNDEF < CONST(v) < NAC) per (block, register), followed by a rewrite
that substitutes constant registers, folds arithmetic, and collapses
branches on constant conditions to jumps.  Iterating this pass with
simplify-CFG approximates SCCP: once a branch folds, the dead arm stops
polluting the merge, so the next round can propagate further.

Nothing is rewritten until the dataflow has converged.  The dataflow is
bounded (``MAX_ROUNDS``); a procedure it cannot settle within the bound
is left unchanged, because facts taken from a cut-short optimistic
iteration can be wrong (a loop that carries a chain of N copies needs
about N rounds).  The bound must stay: a NaN that flows around a loop
never settles, because each ``inf - inf`` folds to a fresh ``Imm(nan)``
that never equals the last one.

Both halves step one instruction at a time through :func:`_step`,
which updates a state in place, and the dataflow re-runs a block only
when one of its predecessors' out-states changed since it last ran.  A
block whose inputs did not change produces equal states, so every
round decides "changed" as a sweep over every block would, and the
dataflow takes the same number of rounds.  The one exception is a
block that folds a NaN into its out-state: a full sweep re-runs it and
sees a fresh ``Imm(nan)`` every round, so it never settles, while here
the block re-runs only when its inputs change, so the dataflow settles
unless the NaN itself flows around a loop.

This is the pass that cashes in cloning's "caller passes constant 0"
specialization: the clone's entry block materializes the constant, and
this pass folds the parameter tests downstream.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from ..ir.instructions import BinOp, Branch, ICall, Jump, Mov, UnOp
from ..ir.ops import EvalError, eval_binop, eval_unop
from ..ir.procedure import Procedure
from ..ir.program import Program
from ..ir.types import Type
from ..ir.values import FuncRef, GlobalRef, Imm, Operand, Reg

# Lattice values: None = NAC; the _Undef sentinel = unknown-yet; an
# operand (Imm/FuncRef/GlobalRef) = known constant.
_UNDEF = object()
Lattice = Union[None, object, Imm, FuncRef, GlobalRef]
_CONSTANTS = (Imm, FuncRef, GlobalRef)

# Dataflow rounds before the pass gives up on a procedure.
MAX_ROUNDS = 50


def _meet(a: Lattice, b: Lattice) -> Lattice:
    if a is _UNDEF:
        return b
    if b is _UNDEF:
        return a
    if a is None or b is None:
        return None
    return a if a == b else None


def _step(instr, state: Dict[str, Lattice]) -> None:
    """Apply one instruction to ``state`` in place."""
    cls = instr.__class__
    if cls is Mov:
        src = instr.src
        state[instr.dest.name] = (
            state.get(src.name, _UNDEF) if src.__class__ is Reg else src
        )
    elif cls is BinOp:
        lhs, rhs = instr.lhs, instr.rhs
        state[instr.dest.name] = _fold_binop(
            instr.op,
            state.get(lhs.name, _UNDEF) if lhs.__class__ is Reg else lhs,
            state.get(rhs.name, _UNDEF) if rhs.__class__ is Reg else rhs,
        )
    elif cls is UnOp:
        src = instr.src
        state[instr.dest.name] = _fold_unop(
            instr.op, state.get(src.name, _UNDEF) if src.__class__ is Reg else src
        )
    elif instr.dest is not None:  # Load, Call, ICall, Alloca
        state[instr.dest.name] = None


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
    ins = _dataflow(proc, labels)
    if ins is None:
        return False  # the round bound cut the dataflow short

    # Rewrite using the in-states.
    rewritten = False
    state: Dict[str, Lattice] = {}

    def subst(op: Operand) -> Operand:
        nonlocal rewritten
        if op.__class__ is Reg:
            known = state.get(op.name, _UNDEF)
            if isinstance(known, _CONSTANTS):
                rewritten = True
                return known
        return op

    for label in labels:
        state = dict(ins[label])
        block = proc.blocks[label]
        new_instrs = []
        for instr in block.instrs:
            instr.map_operands(subst)
            # Track state forward within the block for subsequent instrs.
            # A replacement below steps the state as ``instr`` does.
            _step(instr, state)

            cls = instr.__class__
            if cls is BinOp or cls is UnOp:
                folded = state[instr.dest.name]
                if isinstance(folded, _CONSTANTS):
                    instr = Mov(instr.dest, folded)
                    rewritten = True
            elif cls is Branch and isinstance(instr.cond, Imm):
                target = instr.then_target if instr.cond.value else instr.else_target
                instr = Jump(target)
                rewritten = True
                proc.drop_cfg_facts()
            elif cls is ICall and isinstance(instr.func, FuncRef):
                # Devirtualization: a constant code pointer reached the
                # function position (Section 3.1's staged optimization).
                instr = instr.to_direct()
                rewritten = True
            new_instrs.append(instr)
        block.instrs = new_instrs
    return rewritten


def _dataflow(
    proc: Procedure, labels: List[str]
) -> Optional[Dict[str, Dict[str, Lattice]]]:
    """In-state per reachable block, or None if the bound was reached.

    A round-robin sweep in reverse postorder.  Every block runs in the
    first round.  The entry's in-state is the parameters' and never
    changes, so it runs only then; any other block runs again only when
    a predecessor's out-state changed since it last ran.
    """
    preds = proc.predecessors()
    succs: Dict[str, List[str]] = {label: [] for label in labels}
    for label in labels:
        if label != proc.entry:
            for pred in preds[label]:
                if pred in succs:
                    succs[pred].append(label)

    ins: Dict[str, Dict[str, Lattice]] = {}
    outs: Dict[str, Dict[str, Lattice]] = {}
    stale = set(labels)
    changed = True
    rounds = 0
    while changed and rounds < MAX_ROUNDS:
        changed = False
        rounds += 1
        for label in labels:
            if label not in stale:
                continue
            stale.discard(label)
            if label == proc.entry:
                in_state = {name: None for name, _ in proc.params}
            else:
                in_state = _merge(preds[label], outs)
            if ins.get(label) == in_state:
                continue  # equal inputs give an equal out-state
            ins[label] = in_state
            changed = True
            out_state = dict(in_state)
            for instr in proc.blocks[label].instrs:
                _step(instr, out_state)
            if outs.get(label) != out_state:
                outs[label] = out_state
                stale.update(succs[label])
    return None if changed else ins


def _merge(preds: List[str], outs: Dict[str, Dict[str, Lattice]]) -> Dict[str, Lattice]:
    """The meet of the predecessors' out-states computed so far."""
    merged: Optional[Dict[str, Lattice]] = None
    for pred in preds:
        pstate = outs.get(pred)
        if pstate is None:
            continue
        if merged is None:
            merged = dict(pstate)
            continue
        for reg, b in pstate.items():
            merged[reg] = _meet(merged.get(reg, _UNDEF), b)
    return {} if merged is None else merged
