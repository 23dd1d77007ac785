"""Local common-subexpression elimination by block-level value numbering.

Pure expressions (``mov``/``unop``/non-trapping ``binop``) are hashed by
(opcode, operand identities); a repeat within the block is rewritten to
copy the earlier result.  Loads participate too, keyed by address, and
are invalidated by any store or call (no alias analysis — stores kill
all remembered loads, calls may store anywhere).

Division and modulo by a non-constant divisor can trap, but CSE only
*reuses* a previously executed instance with identical operands, which
would have trapped identically — so they participate safely.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..ir.instructions import BinOp, Call, ICall, Load, Mov, Store, UnOp
from ..ir.ops import COMMUTATIVE_OPS
from ..ir.procedure import Procedure
from ..ir.program import Program
from ..ir.values import FuncRef, GlobalRef, Imm, Operand, Reg


def _op_key(op: Operand) -> Tuple:
    if isinstance(op, Reg):
        return ("r", op.name)
    if isinstance(op, Imm):
        return ("i", op.type.value, repr(op.value))
    if isinstance(op, FuncRef):
        return ("f", op.name)
    if isinstance(op, GlobalRef):
        return ("g", op.name)
    raise TypeError(op)  # pragma: no cover


def local_cse(program: Program, proc: Procedure) -> bool:
    changed = False
    for block in proc.blocks.values():
        exprs: Dict[Tuple, Reg] = {}  # expression key -> register holding it
        loads: Dict[Tuple, Reg] = {}  # address key -> register holding the load
        # register name -> (table, key) of the entries that may hold or
        # read it: each entry is filed under its value and its key's
        # register operands.  A kill re-checks what it finds, so entries
        # dropped or replaced since (``loads.clear()``) need no upkeep.
        readers: Dict[str, List[Tuple[Dict[Tuple, Reg], Tuple]]] = {}

        def kill_reg(name: str) -> None:
            """Drop every entry held in ``name`` or reading it."""
            filed = readers.pop(name, None)
            if filed is None:
                return
            operand = ("r", name)
            for table, key in filed:
                value = table.get(key)
                if value is not None and (value.name == name or operand in key):
                    del table[key]

        for index, instr in enumerate(block.instrs):
            cls = instr.__class__
            key: Optional[Tuple] = None
            table = exprs

            if cls is BinOp:
                a, b = _op_key(instr.lhs), _op_key(instr.rhs)
                if instr.op in COMMUTATIVE_OPS and b < a:
                    a, b = b, a
                key = ("bin", instr.op, a, b)
            elif cls is UnOp:
                key = ("un", instr.op, _op_key(instr.src))
            elif cls is Load:
                key = ("ld", _op_key(instr.addr))
                table = loads
            elif cls is Store:
                loads.clear()
            elif cls is Call or cls is ICall:
                loads.clear()

            if key is not None:
                prior = table.get(key)
                if prior is not None and prior.name != instr.dest.name:
                    block.instrs[index] = Mov(instr.dest, prior)
                    changed = True
                    kill_reg(instr.dest.name)
                    continue

            if instr.dest is not None:
                dest = instr.dest
                kill_reg(dest.name)
                # Do not record expressions that read their own
                # destination (x = add x, 1): the key would describe the
                # pre-assignment value of x.
                if key is not None and ("r", dest.name) not in _flatten(key):
                    table[key] = dest
                    entry = (table, key)
                    readers.setdefault(dest.name, []).append(entry)
                    for part in key:
                        if part.__class__ is tuple and part[0] == "r":
                            readers.setdefault(part[1], []).append(entry)
    return changed


def _flatten(key: Tuple) -> Tuple:
    out = []
    for part in key:
        if isinstance(part, tuple):
            out.append(part)
    return tuple(out)
