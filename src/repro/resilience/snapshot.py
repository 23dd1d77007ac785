"""Cheap IR checkpoints for rollback after a failed pass or stage.

Two granularities:

- :class:`ProcedureSnapshot` — a structured copy of one procedure's
  mutable state (blocks, entry, params, attrs, the optimizer's
  ``at_fixed_point`` mark, which is only true of the body it was
  captured with, and the counters ``new_reg`` / ``new_label`` draw
  from, so a restored procedure hands out the same names again).  The
  guard takes one per guarded ``optimize_proc`` call and one per
  procedure a guarded HLO stage first writes
  (:mod:`repro.resilience.guard`).  Instructions are copied
  individually (``Instr.copy()``, the same primitive body transplants
  use) because passes like constant propagation rewrite operands of
  existing instructions in place.
- :class:`ProgramSnapshot` — a structural copy of every module
  (procedures, globals, externs), for callers that must return a whole
  program to an earlier state.  The guard itself no longer takes one:
  bisection tries its (pass, procedure) pairs on detached copies.

Restores are **in place**: the ``Procedure``/``Program``/``Module``
objects keep their identity, so references held by surrounding driver
code (budget, reports, iteration lists) stay valid after a rollback.
Per-module site-id counters are intentionally left alone — they are
monotonic and never recycled, so a rolled-back stage simply leaves a
gap in the id space rather than a chance of reuse.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..ir.basicblock import BasicBlock
from ..ir.module import GlobalVar, Module
from ..ir.procedure import Procedure
from ..ir.program import Program


def _copy_blocks(blocks: Dict[str, BasicBlock]) -> Dict[str, BasicBlock]:
    out: Dict[str, BasicBlock] = {}
    for label, block in blocks.items():
        copied = BasicBlock(label, [instr.copy() for instr in block.instrs])
        copied.profile_count = block.profile_count
        out[label] = copied
    return out


class ProcedureSnapshot:
    """Checkpoint of one procedure, restorable in place any number of times."""

    def __init__(self, proc: Procedure):
        self.name = proc.name
        self._params = list(proc.params)
        self._ret_type = proc.ret_type
        self._linkage = proc.linkage
        self._attrs = set(proc.attrs)
        self._entry = proc.entry
        self._blocks = _copy_blocks(proc.blocks)
        self._at_fixed_point = proc.at_fixed_point
        self._counters = (proc._reg_counter, proc._label_counter)

    def restore(self, proc: Procedure) -> None:
        if proc.name != self.name:
            raise ValueError(
                "snapshot of @{} cannot restore @{}".format(self.name, proc.name)
            )
        proc.params = list(self._params)
        proc.ret_type = self._ret_type
        proc.linkage = self._linkage
        proc.attrs = set(self._attrs)
        proc.entry = self._entry
        proc.blocks = _copy_blocks(self._blocks)
        proc.drop_cfg_facts()
        proc.at_fixed_point = self._at_fixed_point
        proc._reg_counter, proc._label_counter = self._counters

    def materialize(self, module_name: str) -> Procedure:
        """Recreate the procedure from scratch (it was deleted meanwhile)."""
        proc = Procedure(
            self.name,
            list(self._params),
            self._ret_type,
            module_name,
            self._linkage,
            set(self._attrs),
        )
        proc.blocks = _copy_blocks(self._blocks)
        proc.entry = self._entry
        proc.at_fixed_point = self._at_fixed_point
        proc._reg_counter, proc._label_counter = self._counters
        return proc


class ProgramSnapshot:
    """Checkpoint of a whole program, restorable in place.

    Captures every module's procedures, globals, and extern table.
    Stages never add or remove whole modules, so the module set itself
    is not versioned.
    """

    def __init__(self, program: Program):
        self._modules: List[
            Tuple[str, List[ProcedureSnapshot], List[Tuple], Dict]
        ] = []
        for name, mod in program.modules.items():
            procs = [ProcedureSnapshot(p) for p in mod.procs.values()]
            gvars = [
                (g.name, g.size, list(g.init), g.linkage) for g in mod.globals.values()
            ]
            self._modules.append((name, procs, gvars, dict(mod.externs)))

    def restore(self, program: Program) -> None:
        for name, proc_snaps, gvars, externs in self._modules:
            mod = program.modules.get(name)
            if mod is None:  # pragma: no cover - stages never drop modules
                mod = program.add_module(Module(name))
            mod.externs = dict(externs)

            new_globals: Dict[str, GlobalVar] = {}
            for gname, size, init, linkage in gvars:
                gvar = mod.globals.get(gname)
                if gvar is None:
                    gvar = GlobalVar(gname, size, init, name, linkage)
                else:
                    gvar.size = size
                    gvar.init = list(init)
                    gvar.linkage = linkage
                new_globals[gname] = gvar
            mod.globals = new_globals

            new_procs: Dict[str, Procedure] = {}
            for snap in proc_snaps:
                proc = mod.procs.get(snap.name)
                if proc is None:
                    proc = snap.materialize(name)
                else:
                    snap.restore(proc)
                new_procs[snap.name] = proc
            mod.set_procs(new_procs)
