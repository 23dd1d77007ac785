"""Probe insertion: the instrumenting compile of the PGO pipeline.

One ``probe`` instruction is prepended to every basic block; executing
it bumps a counter in the run's profile buffer.  The probe map records
which (procedure, block) each counter measures so the database can be
reconstructed after the training run.  Instrumentation is real code —
it costs compile size and run time, exactly the overhead the paper
notes when reporting profile-based compile times.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..ir.instructions import Probe
from ..ir.program import Program

ProbeMap = Dict[int, Tuple[str, str]]  # counter id -> (proc name, block label)


def instrument_program(program: Program) -> ProbeMap:
    """Insert one probe per block, in place; returns the probe map."""
    probe_map: ProbeMap = {}
    counter = 0
    for proc in program.all_procs():
        for label, block in proc.blocks.items():
            block.instrs.insert(0, Probe(counter))
            probe_map[counter] = (proc.name, label)
            counter += 1
    return probe_map


def strip_probes(program: Program) -> int:
    """Remove every probe, in place; returns how many were removed.

    Training strips the probes from the program it ran, which leaves
    that program as the front end made it: the same instruction
    objects, labels, registers and name counters.
    """
    removed = 0
    for proc in program.all_procs():
        for block in proc.blocks.values():
            before = len(block.instrs)
            block.instrs = [i for i in block.instrs if not isinstance(i, Probe)]
            removed += before - len(block.instrs)
    return removed
