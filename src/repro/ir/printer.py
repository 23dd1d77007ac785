"""Textual serialization of IR modules.

The textual form is the on-disk format of "isom" files (Section 2.1 of
the paper: special object files holding unoptimized intermediate code
that the linker hands to HLO en masse).  :mod:`repro.ir.parser` parses
the same format back; round-tripping is property-tested.
"""

from __future__ import annotations

from typing import Dict, Optional

from .module import Module
from .procedure import Procedure
from .program import Program


def print_module(mod: Module, printed: Optional[Dict[str, str]] = None) -> str:
    """Serialize one module to its textual form.

    ``printed`` is an optional memo for :func:`print_proc_once`.
    """
    if printed is None:
        printed = {}
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
        lines.append(print_proc_once(proc, printed))
    return "\n".join(lines) + "\n"


def print_proc_once(proc: Procedure, printed: Dict[str, str]) -> str:
    """``print_proc(proc)``, through a memo of texts by procedure name.

    One memo lets several readers of an unchanged program share one
    print per procedure: a build's training fingerprints and its isom
    writer, say.  Its owner drops it before any procedure changes.
    """
    text = printed.get(proc.name)
    if text is None:
        text = printed[proc.name] = print_proc(proc)
    return text


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


def print_program(program: Program) -> str:
    """Serialize a whole program, one module after another."""
    return "\n".join(print_module(m) for m in program.modules.values())


def _fmt_word(word) -> str:
    if isinstance(word, float):
        return repr(word)
    return str(word)
