"""Legality, technical, pragmatic, and user-imposed screens (Section 2.4).

"The inliner first considers all call sites for any legal, technical,
pragmatic, or user-imposed restrictions on inlining.  Illegal sites
include those with gross type mismatches, varargs, or argument arity
differences.  Technically restricted sites include those where
information specific to the callee disagrees with information specific
to the caller [e.g. FP reassociation].  Pragmatic concerns include
issues like handling callees that use alloca ... User imposed
restrictions come from various command line options and pragmas."

Each check returns a reason string (for reports) or ``None`` when the
site passes.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..analysis.callgraph import CallSite, EXTERNAL, INDIRECT
from ..ir.instructions import Call
from ..ir.procedure import (
    ATTR_FP_REASSOC,
    ATTR_NOCLONE,
    ATTR_NOINLINE,
    ATTR_VARARGS,
    Procedure,
)
from ..ir.program import Program


# Reason-string prefix -> Figure 5 legality class.  The inlining
# ledger (repro.obs.ledger) buckets every rejected call site by these
# classes; keep the table next to the strings so a new screen cannot
# be added without deciding its class.
REASON_CLASSES = (
    ("indirect call", "indirect"),
    ("not a direct call", "indirect"),
    ("external callee", "external"),
    ("cross-module site", "scope"),
    ("module compiled module-at-a-time", "isom-fallback"),
    ("argument arity difference", "arity-mismatch"),
    ("callee takes variable arguments", "varargs"),
    ("callee permits FP reassociation", "fp-reassoc"),
    ("callee uses dynamic stack allocation", "alloca"),
    ("user directive", "user-directive"),
    ("cannot clone the program entry point", "entry-point"),
)


def classify_blocker(reason: str) -> str:
    """The Figure 5 legality class for a blocker reason string."""
    for prefix, clazz in REASON_CLASSES:
        if reason.startswith(prefix):
            return clazz
    return "other"


def inline_blocker(
    program: Program,
    site: CallSite,
    cross_module: bool = True,
    local_modules: Sequence[str] = (),
) -> Optional[str]:
    """Why this site cannot be inlined, or None when it can."""
    if site.category == INDIRECT:
        return "indirect call (callee computed at run time)"
    if site.category == EXTERNAL or site.callee is None:
        return "external callee (no intermediate code available)"
    callee = site.callee
    caller = site.caller

    if not cross_module and callee.module != caller.module:
        return "cross-module site outside current optimization scope"
    blocked = _local_module_blocker(caller, callee, local_modules)
    if blocked:
        return blocked

    # Legal restrictions: arity / gross type mismatch, varargs.
    blocked = _signature_blocker(site, callee)
    if blocked:
        return blocked
    if ATTR_VARARGS in callee.attrs:
        return "callee takes variable arguments"

    # Technical restrictions: caller/callee IR-level disagreements.
    if ATTR_FP_REASSOC in callee.attrs and ATTR_FP_REASSOC not in caller.attrs:
        return "callee permits FP reassociation but caller does not"

    # Pragmatic restrictions.
    if callee.uses_dynamic_alloca:
        return "callee uses dynamic stack allocation (alloca)"

    # User-imposed restrictions.
    if ATTR_NOINLINE in callee.attrs:
        return "user directive: noinline"
    return None


def clone_blocker(
    program: Program,
    site: CallSite,
    cross_module: bool = True,
    local_modules: Sequence[str] = (),
) -> Optional[str]:
    """Why this site cannot participate in cloning, or None."""
    if site.category == INDIRECT:
        return "indirect call (callee computed at run time)"
    if site.category == EXTERNAL or site.callee is None:
        return "external callee (no intermediate code available)"
    callee = site.callee
    caller = site.caller

    if not cross_module and callee.module != caller.module:
        return "cross-module site outside current optimization scope"
    blocked = _local_module_blocker(caller, callee, local_modules)
    if blocked:
        return blocked
    blocked = _signature_blocker(site, callee)
    if blocked:
        return blocked
    if ATTR_VARARGS in callee.attrs:
        return "callee takes variable arguments"
    if ATTR_NOCLONE in callee.attrs:
        return "user directive: noclone"
    if callee.name == "main":
        return "cannot clone the program entry point"
    return None


def _local_module_blocker(
    caller: Procedure, callee: Procedure, local_modules: Sequence[str]
) -> Optional[str]:
    """Degradation screen (docs/resilience.md): a module whose isom was
    corrupt or version-skewed fell back to module-at-a-time compilation,
    so no transform may cross its boundary even in a link-time build."""
    if caller.module == callee.module:
        return None
    if caller.module in local_modules or callee.module in local_modules:
        return "module compiled module-at-a-time (isom fallback)"
    return None


def _signature_blocker(site: CallSite, callee: Procedure) -> Optional[str]:
    """Arity screens: "we could [transform] even in such cases, but the
    idea is to try and preserve the behavior of even semantically
    incorrect programs." """
    instr = site.instr
    if not isinstance(instr, Call):
        return "not a direct call"
    fixed = len(callee.params)
    if ATTR_VARARGS in callee.attrs:
        if len(instr.args) < fixed:
            return "argument arity difference (too few args for varargs callee)"
        return None
    if len(instr.args) != fixed:
        return "argument arity difference ({} args for {} params)".format(
            len(instr.args), fixed
        )
    return None
