"""Parser for the textual IR / isom format produced by :mod:`printer`.

:func:`parse_module` reads a module in one pass over its lines.  Each
distinct operand text is parsed once per module and each distinct
extern signature once: operands and signatures are frozen values, so
the instructions and externs that spell them alike share one object.
Every malformed line raises :class:`ParseError` with its line number,
including a line the IR itself refuses (an unknown type, a duplicate
name, a global's bad size or initializer).
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from .basicblock import BasicBlock
from .instructions import (
    CALL_INSTRS,
    Alloca,
    BinOp,
    Branch,
    Call,
    ICall,
    Instr,
    Jump,
    Load,
    Mov,
    Probe,
    Ret,
    Store,
    UnOp,
)
from .module import GlobalVar, Module
from .ops import BINARY_OPS, UNARY_OPS
from .procedure import Procedure
from .program import Program
from .types import Signature, Type
from .values import FuncRef, GlobalRef, Imm, Operand, Reg


class ParseError(Exception):
    """Raised on malformed IR text, with a line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__("line {}: {}".format(lineno, message))
        self.lineno = lineno


_MODULE_RE = re.compile(r'^module\s+"([^"]+)"$')
_EXTERN_RE = re.compile(r"^extern\s+@([\w.$]+)\s+\(([^)]*)\)\s*->\s*(\w+)$")
_GLOBAL_RE = re.compile(
    r"^global\s+\$([\w.$]+)\s+\[(\d+)\]\s+(global|static)(?:\s*=\s*(.*))?$"
)
_PROC_RE = re.compile(
    r"^proc\s+@([\w.$]+)\(([^)]*)\)\s*->\s*(\w+)\s+(global|static)"
    r"(?:\s*\[([^\]]*)\])?\s*\{$"
)
_PARAM_RE = re.compile(r"^%([\w.]+)\s*:\s*(\w+)$")
_LABEL_RE = re.compile(r"^([\w.]+):(?:\s*!(\d+))?$")
_DEST_RE = re.compile(r"^(%[\w.]+)\s*=\s*(.*)$")
# ``call``/``icall`` after the opcode and the whitespace that follows it.
_CALL_RE = re.compile(r"^@([\w.$]+)\((.*)\)\s*#(-?\d+)$")
_ICALL_RE = re.compile(r"^(\S+)\((.*)\)\s*#(-?\d+)$")
_LOAD_RE = re.compile(r"^\[(.+)\]$")
_STORE_RE = re.compile(r"^\[(.+)\]\s*,\s*(.+)$")
_FLOAT_RE = re.compile(r"^-?(?:\d+\.\d*(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+|\d*\.\d+)$")
_INT_RE = re.compile(r"^-?\d+$")
# What the printer writes for the non-finite floats (their ``repr``).
_NON_FINITE = frozenset(["inf", "-inf", "nan"])
_TYPES = {ty.value: ty for ty in Type}


def parse_operand(text: str, lineno: int = 0) -> Operand:
    text = text.strip()
    if text.startswith("%"):
        return Reg(text[1:])
    if text.startswith("@"):
        return FuncRef(text[1:])
    if text.startswith("$"):
        return GlobalRef(text[1:])
    if _INT_RE.match(text):
        return Imm(int(text))
    if _FLOAT_RE.match(text) or text in _NON_FINITE:
        return Imm(float(text), Type.FLT)
    raise ParseError(lineno, "bad operand: {!r}".format(text))


def _operand(text: str, lineno: int, operands: Dict[str, Operand]) -> Operand:
    """``parse_operand`` through the module's memo of operand texts."""
    op = operands.get(text)
    if op is None:
        op = operands[text] = parse_operand(text, lineno)
    return op


def _split_args(text: str) -> List[str]:
    text = text.strip()
    if not text:
        return []
    return [a.strip() for a in text.split(",")]


def _type(text: str, lineno: int) -> Type:
    ty = _TYPES.get(text)
    if ty is None:
        raise ParseError(lineno, "unknown type: {!r}".format(text))
    return ty


def _need(dest: Optional[Reg], lineno: int) -> Reg:
    if dest is None:
        raise ParseError(lineno, "instruction requires a destination register")
    return dest


# One reader per opcode: each takes the destination (or None), the
# stripped text after the opcode, the whole line (for messages), its
# number and the module's operand memo.  A terminator, store or probe
# ignores a destination.

def _read_mov(dest, tail, line, lineno, operands):
    return Mov(_need(dest, lineno), _operand(tail, lineno, operands))


def _read_unop(op):
    def read(dest, tail, line, lineno, operands):
        return UnOp(_need(dest, lineno), op, _operand(tail, lineno, operands))

    return read


def _read_binop(op):
    def read(dest, tail, line, lineno, operands):
        # Exactly two operands, so the text holds exactly one comma.
        args = tail.split(",")
        if len(args) != 2:
            raise ParseError(lineno, "binop needs two operands: {!r}".format(line))
        return BinOp(
            _need(dest, lineno),
            op,
            _operand(args[0], lineno, operands),
            _operand(args[1], lineno, operands),
        )

    return read


def _read_load(dest, tail, line, lineno, operands):
    m = _LOAD_RE.match(tail)
    if not m:
        raise ParseError(lineno, "bad load: {!r}".format(line))
    return Load(_need(dest, lineno), _operand(m.group(1), lineno, operands))


def _read_store(dest, tail, line, lineno, operands):
    m = _STORE_RE.match(tail)
    if not m:
        raise ParseError(lineno, "bad store: {!r}".format(line))
    return Store(
        _operand(m.group(1), lineno, operands), _operand(m.group(2), lineno, operands)
    )


def _read_alloca(dest, tail, line, lineno, operands):
    return Alloca(_need(dest, lineno), _operand(tail, lineno, operands))


def _read_jmp(dest, tail, line, lineno, operands):
    return Jump(tail)


def _read_br(dest, tail, line, lineno, operands):
    args = tail.split(",")
    if len(args) != 3:
        raise ParseError(lineno, "bad br: {!r}".format(line))
    return Branch(_operand(args[0], lineno, operands), args[1].strip(), args[2].strip())


def _read_ret(dest, tail, line, lineno, operands):
    return Ret(_operand(tail, lineno, operands) if tail else None)


def _read_probe(dest, tail, line, lineno, operands):
    return Probe(int(tail))


def _read_call(dest, tail, line, lineno, operands):
    m = _CALL_RE.match(tail)
    if not m:
        raise ParseError(lineno, "bad call: {!r}".format(line))
    args = [_operand(a, lineno, operands) for a in _split_args(m.group(2))]
    return Call(dest, m.group(1), args, int(m.group(3)))


def _read_icall(dest, tail, line, lineno, operands):
    m = _ICALL_RE.match(tail)
    if not m:
        raise ParseError(lineno, "bad icall: {!r}".format(line))
    func = _operand(m.group(1), lineno, operands)
    args = [_operand(a, lineno, operands) for a in _split_args(m.group(2))]
    return ICall(dest, func, args, int(m.group(3)))


_READERS = {
    "mov": _read_mov,
    "call": _read_call,
    "icall": _read_icall,
    "load": _read_load,
    "store": _read_store,
    "alloca": _read_alloca,
    "jmp": _read_jmp,
    "br": _read_br,
    "ret": _read_ret,
    "probe": _read_probe,
}
_READERS.update((op, _read_unop(op)) for op in UNARY_OPS)
_READERS.update((op, _read_binop(op)) for op in BINARY_OPS)


def _read_instr(line: str, lineno: int, operands: Dict[str, Operand]) -> Instr:
    """One instruction from a stripped, non-empty line."""
    dest: Optional[Reg] = None
    rest = line
    if line[0] == "%":
        eq = _DEST_RE.match(line)
        if eq:
            dest = _operand(eq.group(1), lineno, operands)
            rest = eq.group(2).strip()
    parts = rest.split(None, 1)
    reader = _READERS.get(parts[0]) if parts else None
    if reader is None:
        raise ParseError(lineno, "unknown instruction: {!r}".format(line))
    return reader(dest, parts[1] if len(parts) > 1 else "", line, lineno, operands)


def parse_instr(line: str, lineno: int = 0) -> Instr:
    """Parse one instruction line."""
    line = line.strip()
    if not line:
        raise ParseError(lineno, "missing opcode: {!r}".format(line))
    try:
        return _read_instr(line, lineno, {})
    except ValueError as exc:
        raise ParseError(lineno, str(exc)) from exc


def parse_module(text: str) -> Module:
    """Parse one module's textual form back into a :class:`Module`."""
    mod: Optional[Module] = None
    proc: Optional[Procedure] = None
    block: Optional[BasicBlock] = None
    max_site = -1
    operands: Dict[str, Operand] = {}
    signatures: Dict[Tuple[str, str], Signature] = {}
    lineno = 0
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line[0] == ";":
                continue

            if line.startswith("module"):
                m = _MODULE_RE.match(line)
                if not m:
                    raise ParseError(lineno, "bad module header")
                if mod is not None:
                    raise ParseError(lineno, "multiple module headers")
                mod = Module(m.group(1))
                continue

            if proc is not None:
                # Inside a procedure body.
                if line == "}":
                    if block is None:
                        raise ParseError(lineno, "empty procedure body")
                    proc = None
                    block = None
                    continue
                label = _LABEL_RE.match(line) if ":" in line else None
                if label:
                    block = proc.add_block(BasicBlock(label.group(1)))
                    if label.group(2) is not None:
                        block.profile_count = int(label.group(2))
                    continue
                if block is None:
                    raise ParseError(lineno, "instruction before first label")
                instr = _read_instr(line, lineno, operands)
                block.instrs.append(instr)
                if isinstance(instr, CALL_INSTRS) and instr.site_id > max_site:
                    max_site = instr.site_id
                continue

            if mod is None:
                raise ParseError(lineno, "content before module header")
            if line.startswith("extern"):
                m = _EXTERN_RE.match(line)
                if not m:
                    raise ParseError(lineno, "bad extern")
                key = (m.group(2), m.group(3))
                sig = signatures.get(key)
                if sig is None:
                    sig = signatures[key] = _signature(*key, lineno)
                mod.declare_extern(m.group(1), sig)
            elif line.startswith("global"):
                mod.add_global(_global(line, lineno))
            elif line.startswith("proc"):
                proc = mod.add_proc(_proc_header(line, lineno))
                block = None
            else:
                raise ParseError(
                    lineno, "unexpected line at module scope: {!r}".format(line)
                )
    except ValueError as exc:
        # The IR refused what the line spells (see the module docstring).
        raise ParseError(lineno, str(exc)) from exc

    if mod is None:
        raise ParseError(0, "no module header found")
    if proc is not None:
        raise ParseError(0, "unterminated procedure body")
    mod.bump_site_counter(max_site + 1)
    return mod


def _signature(params_text: str, ret: str, lineno: int) -> Signature:
    varargs = False
    ptypes: List[Type] = []
    for part in _split_args(params_text):
        if part == "...":
            varargs = True
        elif part:
            ptypes.append(_type(part, lineno))
    return Signature(tuple(ptypes), _type(ret, lineno), varargs)


def _global(line: str, lineno: int) -> GlobalVar:
    m = _GLOBAL_RE.match(line)
    if not m:
        raise ParseError(lineno, "bad global")
    init: List = []
    if m.group(4):
        for word in m.group(4).split():
            if _FLOAT_RE.match(word) or word in _NON_FINITE:
                init.append(float(word))
            else:
                init.append(int(word))
    return GlobalVar(m.group(1), int(m.group(2)), init, linkage=m.group(3))


def _proc_header(line: str, lineno: int) -> Procedure:
    m = _PROC_RE.match(line)
    if not m:
        raise ParseError(lineno, "bad proc header: {!r}".format(line))
    name, params_text, ret, linkage, attrs_text = m.groups()
    params: List[Tuple[str, Type]] = []
    for part in _split_args(params_text):
        if not part:
            continue
        pm = _PARAM_RE.match(part)
        if not pm:
            raise ParseError(lineno, "bad parameter: {!r}".format(part))
        params.append((pm.group(1), _type(pm.group(2), lineno)))
    attrs = set()
    if attrs_text:
        attrs = {a.strip() for a in attrs_text.split(",") if a.strip()}
    return Procedure(name, params, _type(ret, lineno), linkage=linkage, attrs=attrs)


def parse_program(text: str) -> Program:
    """Parse a multi-module dump (modules separated by their headers)."""
    program = Program()
    chunks: List[List[str]] = []
    for raw in text.splitlines():
        if raw.startswith("module "):
            chunks.append([raw])
        elif chunks:
            chunks[-1].append(raw)
        elif raw.strip():
            raise ParseError(1, "content before first module header")
    for chunk in chunks:
        program.add_module(parse_module("\n".join(chunk)))
    return program
