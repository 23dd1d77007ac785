"""Per-procedure source fingerprints for staleness detection.

"From Profiling to Optimization" identifies profile *staleness* — a
profile trained against yesterday's sources applied to today's — as the
dominant production failure mode of deployed PGO.  The whole-database
``match_ratio`` catches the catastrophic case (nothing matches), but a
real edit usually touches a handful of procedures and leaves the rest
byte-identical; dropping the entire database over one edited routine
throws away almost-entirely-fresh data.

A *fingerprint* is a short digest of one procedure's printed IR.  The
front end is deterministic, so recompiling unchanged source reproduces
the identical IR text and therefore the identical fingerprint, while
any edit that changes the procedure's shape changes it.  The profile
database records one fingerprint per procedure at training time; the
lifecycle layer (:mod:`repro.sampling.lifecycle`) compares them against
a fresh compile to classify each procedure as *fresh*, *remapped*
(label-level salvage of a changed body), or *missing*.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional

from ..ir.printer import print_proc, print_proc_once
from ..ir.procedure import Procedure
from ..ir.program import Program

FINGERPRINT_HEX_DIGITS = 12


def fingerprint_procedure(
    proc: Procedure, printed: Optional[Dict[str, str]] = None
) -> str:
    """A stable short digest of one procedure's IR shape.

    ``printed`` is an optional memo of procedure texts
    (:func:`~repro.ir.printer.print_proc_once`).
    """
    text = print_proc(proc) if printed is None else print_proc_once(proc, printed)
    digest = hashlib.sha256(text.encode("utf-8"))
    return digest.hexdigest()[:FINGERPRINT_HEX_DIGITS]


def fingerprint_program(
    program: Program, printed: Optional[Dict[str, str]] = None
) -> Dict[str, str]:
    """Fingerprints for every procedure, keyed by procedure name."""
    return {
        proc.name: fingerprint_procedure(proc, printed)
        for proc in program.all_procs()
    }
