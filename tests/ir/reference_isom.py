"""The isom reader and printer, kept as the oracle for the production ones.

This is :mod:`repro.ir.parser` and :mod:`repro.ir.printer` as they were
before the reader was rewritten to one pass with an operand memo and
the printer learned to reuse texts printed earlier in a build: the
reader calls ``re.match`` with pattern strings on some lines, strips and
regex-tests every operand, and lets the IR's own ``ValueError`` escape.
``tests/ir/test_isom_oracle.py`` asserts the production reader and
printer give the same modules and the same errors.  Apart from the merge
of the two modules into one, and ``ParseError`` coming from the
production module (so both raise the same type), and the multi-module
``parse_program``/``print_program`` left out, the code is unchanged.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.ir.basicblock import BasicBlock
from repro.ir.instructions import (
    Alloca,
    BinOp,
    Branch,
    Call,
    ICall,
    Jump,
    Load,
    Mov,
    Probe,
    Ret,
    Store,
    UnOp,
)
from repro.ir.module import GlobalVar, Module
from repro.ir.ops import BINARY_OPS, UNARY_OPS
from repro.ir.parser import ParseError
from repro.ir.procedure import Procedure
from repro.ir.types import Signature, Type, parse_type
from repro.ir.values import FuncRef, GlobalRef, Imm, Operand, Reg


_MODULE_RE = re.compile(r'^module\s+"([^"]+)"$')
_EXTERN_RE = re.compile(r"^extern\s+@([\w.$]+)\s+\(([^)]*)\)\s*->\s*(\w+)$")
_GLOBAL_RE = re.compile(
    r"^global\s+\$([\w.$]+)\s+\[(\d+)\]\s+(global|static)(?:\s*=\s*(.*))?$"
)
_PROC_RE = re.compile(
    r"^proc\s+@([\w.$]+)\(([^)]*)\)\s*->\s*(\w+)\s+(global|static)"
    r"(?:\s*\[([^\]]*)\])?\s*\{$"
)
_LABEL_RE = re.compile(r"^([\w.]+):(?:\s*!(\d+))?$")
_CALL_RE = re.compile(r"^call\s+@([\w.$]+)\((.*)\)\s*#(-?\d+)$")
_ICALL_RE = re.compile(r"^icall\s+(\S+)\((.*)\)\s*#(-?\d+)$")
_FLOAT_RE = re.compile(r"^-?(?:\d+\.\d*(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+|\d*\.\d+)$")
_INT_RE = re.compile(r"^-?\d+$")


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
    if _FLOAT_RE.match(text):
        return Imm(float(text), Type.FLT)
    raise ParseError(lineno, "bad operand: {!r}".format(text))


def _split_args(text: str) -> List[str]:
    text = text.strip()
    if not text:
        return []
    return [a.strip() for a in text.split(",")]


def parse_instr(line: str, lineno: int = 0):
    """Parse one instruction line (whitespace-stripped)."""
    dest: Optional[Reg] = None
    rest = line.strip()
    eq = re.match(r"^(%[\w.]+)\s*=\s*(.*)$", rest)
    if eq:
        dest = Reg(eq.group(1)[1:])
        rest = eq.group(2).strip()

    if rest.startswith("call"):
        m = _CALL_RE.match(rest)
        if not m:
            raise ParseError(lineno, "bad call: {!r}".format(line))
        args = [parse_operand(a, lineno) for a in _split_args(m.group(2))]
        return Call(dest, m.group(1), args, int(m.group(3)))
    if rest.startswith("icall"):
        m = _ICALL_RE.match(rest)
        if not m:
            raise ParseError(lineno, "bad icall: {!r}".format(line))
        func = parse_operand(m.group(1), lineno)
        args = [parse_operand(a, lineno) for a in _split_args(m.group(2))]
        return ICall(dest, func, args, int(m.group(3)))

    parts = rest.split(None, 1)
    op = parts[0]
    tail = parts[1] if len(parts) > 1 else ""

    if op == "mov":
        return Mov(_need(dest, lineno), parse_operand(tail, lineno))
    if op in UNARY_OPS:
        return UnOp(_need(dest, lineno), op, parse_operand(tail, lineno))
    if op in BINARY_OPS:
        args = _split_args(tail)
        if len(args) != 2:
            raise ParseError(lineno, "binop needs two operands: {!r}".format(line))
        return BinOp(
            _need(dest, lineno),
            op,
            parse_operand(args[0], lineno),
            parse_operand(args[1], lineno),
        )
    if op == "load":
        m = re.match(r"^\[(.+)\]$", tail.strip())
        if not m:
            raise ParseError(lineno, "bad load: {!r}".format(line))
        return Load(_need(dest, lineno), parse_operand(m.group(1), lineno))
    if op == "store":
        m = re.match(r"^\[(.+)\]\s*,\s*(.+)$", tail.strip())
        if not m:
            raise ParseError(lineno, "bad store: {!r}".format(line))
        return Store(parse_operand(m.group(1), lineno), parse_operand(m.group(2), lineno))
    if op == "alloca":
        return Alloca(_need(dest, lineno), parse_operand(tail, lineno))
    if op == "jmp":
        return Jump(tail.strip())
    if op == "br":
        args = _split_args(tail)
        if len(args) != 3:
            raise ParseError(lineno, "bad br: {!r}".format(line))
        return Branch(parse_operand(args[0], lineno), args[1], args[2])
    if op == "ret":
        tail = tail.strip()
        return Ret(parse_operand(tail, lineno) if tail else None)
    if op == "probe":
        return Probe(int(tail.strip()))
    raise ParseError(lineno, "unknown instruction: {!r}".format(line))


def _need(dest: Optional[Reg], lineno: int) -> Reg:
    if dest is None:
        raise ParseError(lineno, "instruction requires a destination register")
    return dest


def parse_module(text: str) -> Module:
    """Parse one module's textual form back into a :class:`Module`."""
    mod: Optional[Module] = None
    proc: Optional[Procedure] = None
    block: Optional[BasicBlock] = None
    max_site = -1

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(";"):
            continue

        if line.startswith("module"):
            m = _MODULE_RE.match(line)
            if not m:
                raise ParseError(lineno, "bad module header")
            if mod is not None:
                raise ParseError(lineno, "multiple module headers")
            mod = Module(m.group(1))
            continue

        if mod is None:
            raise ParseError(lineno, "content before module header")

        if proc is None:
            if line.startswith("extern"):
                m = _EXTERN_RE.match(line)
                if not m:
                    raise ParseError(lineno, "bad extern")
                name, params_text, ret = m.group(1), m.group(2), m.group(3)
                varargs = False
                ptypes: List[Type] = []
                for part in _split_args(params_text):
                    if part == "...":
                        varargs = True
                    elif part:
                        ptypes.append(parse_type(part))
                mod.declare_extern(name, Signature(tuple(ptypes), parse_type(ret), varargs))
                continue
            if line.startswith("global"):
                m = _GLOBAL_RE.match(line)
                if not m:
                    raise ParseError(lineno, "bad global")
                init: List = []
                if m.group(4):
                    for word in m.group(4).split():
                        init.append(float(word) if _FLOAT_RE.match(word) else int(word))
                mod.add_global(
                    GlobalVar(m.group(1), int(m.group(2)), init, linkage=m.group(3))
                )
                continue
            if line.startswith("proc"):
                proc = _parse_proc_header(line, lineno)
                mod.add_proc(proc)
                block = None
                continue
            raise ParseError(lineno, "unexpected line at module scope: {!r}".format(line))

        # Inside a procedure body.
        if line == "}":
            if block is None:
                raise ParseError(lineno, "empty procedure body")
            proc = None
            block = None
            continue
        label = _LABEL_RE.match(line)
        if label:
            block = proc.add_block(BasicBlock(label.group(1)))
            if label.group(2) is not None:
                block.profile_count = int(label.group(2))
            continue
        if block is None:
            raise ParseError(lineno, "instruction before first label")
        instr = parse_instr(line, lineno)
        block.instrs.append(instr)
        site = getattr(instr, "site_id", None)
        if site is not None:
            max_site = max(max_site, site)

    if mod is None:
        raise ParseError(0, "no module header found")
    if proc is not None:
        raise ParseError(0, "unterminated procedure body")
    mod.bump_site_counter(max_site + 1)
    return mod


def _parse_proc_header(line: str, lineno: int) -> Procedure:
    m = _PROC_RE.match(line)
    if not m:
        raise ParseError(lineno, "bad proc header: {!r}".format(line))
    name, params_text, ret, linkage, attrs_text = m.groups()
    params: List[Tuple[str, Type]] = []
    for part in _split_args(params_text):
        if not part:
            continue
        pm = re.match(r"^%([\w.]+)\s*:\s*(\w+)$", part)
        if not pm:
            raise ParseError(lineno, "bad parameter: {!r}".format(part))
        params.append((pm.group(1), parse_type(pm.group(2))))
    attrs = set()
    if attrs_text:
        attrs = {a.strip() for a in attrs_text.split(",") if a.strip()}
    return Procedure(name, params, parse_type(ret), linkage=linkage, attrs=attrs)


def print_module(mod: Module) -> str:
    """Serialize one module to its textual form."""
    lines = ['module "{}"'.format(mod.name)]
    for name, sig in sorted(mod.externs.items()):
        lines.append("extern @{} {}".format(name, sig))
    for gvar in mod.globals.values():
        init = ""
        if gvar.init:
            init = " = " + " ".join(_fmt_word(w) for w in gvar.init)
        lines.append(
            "global ${} [{}] {}{}".format(gvar.name, gvar.size, gvar.linkage, init)
        )
    for proc in mod.procs.values():
        lines.append(print_proc(proc))
    return "\n".join(lines) + "\n"


def print_proc(proc: Procedure) -> str:
    """Serialize one procedure (entry block first, then the rest in RPO)."""
    params = ", ".join("%{}: {}".format(n, t) for n, t in proc.params)
    attrs = ""
    if proc.attrs:
        attrs = " [{}]".format(", ".join(sorted(proc.attrs)))
    lines = [
        "proc @{}({}) -> {} {}{} {{".format(
            proc.name, params, proc.ret_type, proc.linkage, attrs
        )
    ]
    rpo = proc.rpo_labels()
    seen = set(rpo)
    ordered = rpo + [label for label in proc.blocks if label not in seen]
    for label in ordered:
        block = proc.blocks[label]
        count = ""
        if block.profile_count is not None:
            count = " !{}".format(block.profile_count)
        lines.append("{}:{}".format(label, count))
        lines.extend("  {}".format(instr) for instr in block.instrs)
    lines.append("}")
    return "\n".join(lines)


def _fmt_word(word) -> str:
    if isinstance(word, float):
        return repr(word)
    return str(word)
