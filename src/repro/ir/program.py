"""Whole programs: an ordered collection of modules plus the runtime ABI.

Procedure and global names are unique program-wide (the front end
mangles statics), so ``Program`` keeps flat indexes over its modules.
``RUNTIME_BUILTINS`` is the small runtime library every program links
against; calls to these names are *external* call sites in the Figure 5
taxonomy — visible to the call graph but never inlined or cloned.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from .module import GlobalVar, Module
from .procedure import Procedure
from .types import Signature, Type

# The runtime library (provided by the interpreter, akin to libc):
RUNTIME_BUILTINS: Dict[str, Signature] = {
    # print an integer to the program's output vector
    "print_int": Signature((Type.INT,), Type.VOID),
    # print a float to the program's output vector
    "print_flt": Signature((Type.FLT,), Type.VOID),
    # read element i of the input vector (0 when out of range)
    "input": Signature((Type.INT,), Type.INT),
    # number of elements in the input vector
    "input_len": Signature((), Type.INT),
    # terminate the program with an exit code
    "exit": Signature((Type.INT,), Type.VOID),
    # absolute value helper (a typical tiny libm entry point)
    "abs": Signature((Type.INT,), Type.INT),
    # allocate n heap words, returning the base address
    "sbrk": Signature((Type.INT,), Type.INT),
    # varargs access (valid inside a varargs procedure): extra arg i
    "va_arg": Signature((Type.INT,), Type.INT),
    # number of extra arguments passed to the current varargs procedure
    "va_count": Signature((), Type.INT),
}


class Program:
    """An ordered set of modules forming one executable image."""

    def __init__(self, modules: Optional[List[Module]] = None):
        self.modules: Dict[str, Module] = {}
        # Lazily populated by repro.interp.engine with a PlanCache of
        # pre-decoded execution plans; kept opaque here so the IR layer
        # never imports the interpreter.  Plans self-invalidate by
        # procedure fingerprint, so this only needs explicit clearing to
        # release memory.
        self._plan_cache = None
        # Same idea for the codegen engine's compiled-source plans
        # (repro.interp.codegen); invalidation covers both.
        self._codegen_cache = None
        for mod in modules or []:
            self.add_module(mod)

    def invalidate_plans(self) -> None:
        """Drop any cached execution plans (see ``repro.interp.engine``
        and ``repro.interp.codegen``)."""
        self._plan_cache = None
        self._codegen_cache = None

    def __getstate__(self):
        # Execution plans hold closures and exec-compiled code objects,
        # neither of which pickles; strip them so Programs cross process
        # boundaries and rebuild lazily.
        state = self.__dict__.copy()
        state["_plan_cache"] = None
        state["_codegen_cache"] = None
        return state

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_module(self, mod: Module) -> Module:
        if mod.name in self.modules:
            raise ValueError("duplicate module: {}".format(mod.name))
        for name in mod.procs:
            if self.proc(name) is not None:
                raise ValueError("duplicate procedure across modules: {}".format(name))
        for name in mod.globals:
            if self.global_var(name) is not None:
                raise ValueError("duplicate global across modules: {}".format(name))
        self.modules[mod.name] = mod
        return mod

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def proc(self, name: str) -> Optional[Procedure]:
        for mod in self.modules.values():
            if name in mod.procs:
                return mod.procs[name]
        return None

    def global_var(self, name: str) -> Optional[GlobalVar]:
        for mod in self.modules.values():
            if name in mod.globals:
                return mod.globals[name]
        return None

    def all_procs(self) -> Iterator[Procedure]:
        for mod in self.modules.values():
            yield from mod.procs.values()

    def all_globals(self) -> Iterator[GlobalVar]:
        for mod in self.modules.values():
            yield from mod.globals.values()

    def proc_names(self) -> List[str]:
        return [p.name for p in self.all_procs()]

    def main(self) -> Procedure:
        proc = self.proc("main")
        if proc is None:
            raise ValueError("program has no 'main' procedure")
        return proc

    def is_builtin(self, name: str) -> bool:
        return name in RUNTIME_BUILTINS

    def is_defined(self, name: str) -> bool:
        """True when ``name`` is a procedure with a body in this program."""
        return self.proc(name) is not None

    def callee_signature(self, name: str) -> Optional[Signature]:
        """Best-known signature for a callee name (defined, builtin, or extern)."""
        proc = self.proc(name)
        if proc is not None:
            return proc.signature()
        if name in RUNTIME_BUILTINS:
            return RUNTIME_BUILTINS[name]
        for mod in self.modules.values():
            if name in mod.externs:
                return mod.externs[name]
        return None

    def size(self) -> int:
        return sum(m.size() for m in self.modules.values())

    def delete_proc(self, name: str) -> None:
        for mod in self.modules.values():
            if name in mod.procs:
                del mod.procs[name]
                return
        raise KeyError(name)

    def __str__(self) -> str:
        return "\n\n".join(str(m) for m in self.modules.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<Program ({} modules, {} procs, {} instrs)>".format(
            len(self.modules), len(list(self.all_procs())), self.size()
        )
