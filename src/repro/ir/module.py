"""Modules: one translation unit's globals and procedures."""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Union

from .procedure import LINK_GLOBAL, Procedure
from .types import Signature


class GlobalVar:
    """A module-level variable of ``size`` memory words.

    ``init`` lists initial word values (shorter than ``size`` means the
    remainder is zero-filled).  Statics are module-scoped like static
    functions and get mangled, module-qualified names from the front end.
    """

    __slots__ = ("name", "size", "init", "module", "linkage")

    def __init__(
        self,
        name: str,
        size: int = 1,
        init: Optional[List[Union[int, float]]] = None,
        module: str = "",
        linkage: str = LINK_GLOBAL,
    ):
        if size < 1:
            raise ValueError("global {} must have size >= 1".format(name))
        self.name = name
        self.size = size
        self.init = list(init) if init else []
        if len(self.init) > size:
            raise ValueError("initializer longer than global {}".format(name))
        self.module = module
        self.linkage = linkage

    def words(self) -> List[Union[int, float]]:
        return self.init + [0] * (self.size - len(self.init))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<GlobalVar ${} [{}]>".format(self.name, self.size)


class Module:
    """One translation unit: globals, procedures, extern declarations.

    ``externs`` records signatures for symbols the module calls but does
    not define (library routines, or procedures from other modules when
    compiling module-at-a-time).  Call-site ids are allocated per module
    so that profile data keyed on ``(module, site_id)`` survives
    recompilation.
    """

    def __init__(self, name: str):
        self.name = name
        self.globals: Dict[str, GlobalVar] = {}
        self.procs: Dict[str, Procedure] = {}
        self.externs: Dict[str, Signature] = {}
        self._site_counter = itertools.count()
        # The procedure-name index of the Program this module was last
        # added to (``Program._proc_homes``), or None.  ``procs`` changes
        # only through the three methods below, which keep it complete.
        self._proc_homes: Optional[Dict[str, str]] = None

    def add_global(self, gvar: GlobalVar) -> GlobalVar:
        if gvar.name in self.globals:
            raise ValueError("duplicate global: {}".format(gvar.name))
        gvar.module = self.name
        self.globals[gvar.name] = gvar
        return gvar

    def add_proc(self, proc: Procedure) -> Procedure:
        if proc.name in self.procs:
            raise ValueError("duplicate procedure: {}".format(proc.name))
        proc.module = self.name
        self.procs[proc.name] = proc
        if self._proc_homes is not None:
            self._proc_homes[proc.name] = self.name
        return proc

    def remove_proc(self, name: str) -> None:
        """Remove procedure ``name``, if this module defines it."""
        if self.procs.pop(name, None) is not None:
            homes = self._proc_homes
            if homes is not None and homes.get(name) == self.name:
                del homes[name]

    def set_procs(self, procs: Dict[str, Procedure]) -> None:
        """Replace the procedure table wholesale, as a rollback does."""
        homes = self._proc_homes
        if homes is not None:
            for name in self.procs:
                if name not in procs and homes.get(name) == self.name:
                    del homes[name]
            for name in procs:
                homes[name] = self.name
        self.procs = procs

    def declare_extern(self, name: str, sig: Signature) -> None:
        self.externs[name] = sig

    def new_site_id(self) -> int:
        return next(self._site_counter)

    def bump_site_counter(self, minimum: int) -> None:
        """Ensure future site ids start at or above ``minimum``."""
        current = next(self._site_counter)
        if current < minimum:
            self._site_counter = itertools.count(minimum)
        else:
            self._site_counter = itertools.count(current)

    def size(self) -> int:
        return sum(p.size() for p in self.procs.values())

    def __str__(self) -> str:
        parts = ['module "{}"'.format(self.name)]
        for name, sig in sorted(self.externs.items()):
            parts.append("extern @{} {}".format(name, sig))
        for gvar in self.globals.values():
            init = " ".join(str(w) for w in gvar.init)
            init = " = {}".format(init) if init else ""
            parts.append(
                "global ${} [{}] {}{}".format(gvar.name, gvar.size, gvar.linkage, init)
            )
        for proc in self.procs.values():
            parts.append(str(proc))
        return "\n".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<Module {} ({} procs)>".format(self.name, len(self.procs))
