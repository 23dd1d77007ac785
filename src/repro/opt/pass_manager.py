"""Pass manager: composes procedure- and program-level optimizations.

The paper's claim rests on a strong downstream optimizer: "inlining at
the intermediate-code level ... a high-quality back end can exploit the
scheduling and register allocation opportunities presented by larger
subroutines."  Our pipeline is the classic scalar suite; HLO re-runs it
over every clone/inlined routine before recalibrating its budget.

Re-optimization is demand-driven: :func:`optimize_proc` skips a
procedure whose ``at_fixed_point`` mark it set earlier.  The mark stays
sound because of one invariant: the seven passes read only the
procedure's ``params``, ``entry`` and its blocks' instructions — never
profile counts, linkage, attrs, the return type or any other
procedure.  So count migration, static promotion and deleting other
procedures leave a mark valid, and only an edit to those three things
outside the passes must clear it.  The HLO transforms that make such
edits report them with ``Program.report_body``, which clears it:
``perform_inline`` (caller), the cloner's retargeting (caller, and the
clone for its own recursive sites), dead-call elimination and the
outliner.  Snapshots carry the mark with the body they restore.

The same invariant makes a guarded call cheap: passes that read only
the procedure and are deterministic give the same result when applied
again to the same body.  So a guarded call copies the procedure once,
and when a pass application fails it restores that copy and replays
the applications that succeeded before it
(:class:`~repro.resilience.guard.GuardedCall`), instead of copying
before every application.
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from ..ir.procedure import Procedure
from ..ir.program import Program

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..resilience.guard import PassGuard

# A procedure pass takes (program, proc) and returns True when it changed IR.
ProcPass = Callable[[Program, Procedure], bool]

MAX_ITERATIONS = 8

# The standard pipeline, in order: (pass name, its module, its
# function).  The modules are imported once, here; ``import_module``
# because the package binds ``licm`` and ``peephole`` to the functions
# of those names.  No pass module imports this one.
_PIPELINE = tuple(
    (name, import_module("." + module, __package__), function)
    for name, module, function in (
        ("constprop", "constprop", "constant_propagation"),
        ("simplifycfg", "simplifycfg", "simplify_cfg"),
        ("copyprop", "copyprop", "copy_propagation"),
        ("peephole", "peephole", "peephole"),
        ("cse", "cse", "local_cse"),
        ("licm", "licm", "licm"),
        ("dce", "dce", "dead_code_elimination"),
    )
)


def default_pipeline() -> List[Tuple[str, ProcPass]]:
    """The standard per-procedure pipeline, in order.  Each function is
    looked up on its module at the call, so a patched pass runs."""
    return [(name, getattr(module, function)) for name, module, function in _PIPELINE]


def optimize_proc(
    program: Program,
    proc: Procedure,
    pipeline: Optional[Sequence[Tuple[str, ProcPass]]] = None,
    max_iterations: int = MAX_ITERATIONS,
    guard: Optional["PassGuard"] = None,
    pass_number: int = -1,
    phase: str = "scalar",
) -> bool:
    """Run the pipeline over one procedure to a fixed point (bounded).

    A default-pipeline call (``pipeline`` left ``None``) on a procedure
    already marked ``at_fixed_point`` returns False at once.  Every call
    that runs leaves the mark set exactly when the default pipeline
    converged within ``max_iterations``, the guard recorded no failure
    during the call, and no pass is quarantined; any other pipeline
    (the fault-injection path) leaves it unset.

    With a :class:`~repro.resilience.PassGuard`, each pass application
    is isolated: an exception (or, in checked builds, a verifier
    failure) returns the procedure to its state before that
    application — the call's one checkpoint, then a replay of the
    applications that succeeded — records a structured diagnostic, and
    the remaining passes continue.  The iteration bound doubles as the
    per-pass step budget — a pass whose rollback/retry would otherwise
    loop forever converges to "no change" once the guard quarantines
    it.
    """
    if pipeline is None and proc.at_fixed_point:
        return False
    # Unset while passes run, so neither the call's checkpoint nor an
    # escaping exception can carry a stale mark.
    proc.at_fixed_point = False
    passes = list(pipeline) if pipeline is not None else default_pipeline()
    failures_before = len(guard.failures) if guard is not None else 0
    call = (
        guard.checkpoint(program, proc, pass_number, phase)
        if guard is not None else None
    )
    changed_any = False
    converged = False
    for _ in range(max_iterations):
        changed = False
        for name, run in passes:
            if call is not None:
                if call.run(name, run):
                    changed = True
            elif run(program, proc):
                changed = True
        if not changed:
            converged = True
            break
        changed_any = True
    clean = guard is None or (
        len(guard.failures) == failures_before and not guard.quarantined
    )
    proc.at_fixed_point = pipeline is None and converged and clean
    return changed_any


def optimize_program(
    program: Program,
    pipeline: Optional[Sequence[Tuple[str, ProcPass]]] = None,
    guard: Optional["PassGuard"] = None,
    pass_number: int = -1,
    phase: str = "scalar",
) -> bool:
    """Optimize every procedure, then apply program-level cleanups.

    Dead-call elimination runs after every per-procedure round (this is
    the analysis that deletes the no-op curses calls in the paper's
    072.sc before inlining even starts).  Procedures still at their
    fixed point cost nothing in later rounds.
    """
    from .deadcalls import eliminate_dead_calls

    changed_any = False
    for _ in range(3):
        changed = False
        for proc in list(program.all_procs()):
            if optimize_proc(
                program, proc, pipeline, guard=guard,
                pass_number=pass_number, phase=phase,
            ):
                changed = True
        if guard is not None:
            deleted = guard.run_program_stage(
                program, "deadcalls",
                lambda: eliminate_dead_calls(program),
                pass_number, phase, default=False,
            )
            changed = bool(deleted) or changed
        elif eliminate_dead_calls(program):
            changed = True
        if not changed:
            break
        changed_any = True
    return changed_any
