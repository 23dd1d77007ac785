"""repro — a reproduction of "Aggressive Inlining" (PLDI 1997).

The package rebuilds the paper's HLO system and everything it stands
on: a ucode-like IR, a C-subset front end, a scalar optimizer, profile
feedback, a link-time (isom) pipeline, the budget-driven multi-pass
inliner/cloner, and a PA8000-style machine model for evaluation.

Quick start::

    from repro import Toolchain

    tc = Toolchain({"main": "int main(){ print_int(42); return 0; }"})
    result = tc.build("c")
    metrics, run = result.run()

See ``examples/quickstart.py`` for the guided tour and DESIGN.md for
the full system inventory.
"""

import importlib

__version__ = "1.0.0"

# Each exported name and the module it comes from, imported at the
# name's first use, so that importing one subpackage (the machine-state
# worker imports only ``ir``, ``interp`` and ``machine``) does not load
# the whole toolchain.
_EXPORTS = {
    "BuildResult": "linker.toolchain",
    "CompileError": "frontend.errors",
    "HLOConfig": "core.config",
    "HLOReport": "core.report",
    "Interpreter": "interp.interpreter",
    "MachineConfig": "machine.pa8000",
    "Program": "ir.program",
    "ProfileDatabase": "profile.database",
    "Result": "interp.interpreter",
    "SCOPES": "linker.toolchain",
    "Toolchain": "linker.toolchain",
    "compile_module": "frontend.driver",
    "compile_program": "frontend.driver",
    "run_hlo": "core.hlo",
    "run_program": "interp.interpreter",
    "simulate": "machine.pa8000",
    "train": "profile.pgo",
}

__all__ = sorted(list(_EXPORTS) + ["__version__"])


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError("module {!r} has no attribute {!r}".format(__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
