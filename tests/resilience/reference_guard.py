"""The per-pass-copy guarded optimizer, kept as a rollback reference.

Before a guarded ``optimize_proc`` call took one checkpoint and replayed
on failure, every pass application copied the procedure first and a
failed application restored that copy.  The loop below is that design,
unchanged; ``tests/resilience/test_rollback_oracle.py`` patches it in
at every name the optimizer is called through and checks that the
replaying runner leaves the same program and diagnostics.
"""

from __future__ import annotations

from repro.ir.verifier import verify_proc
from repro.opt.pass_manager import MAX_ITERATIONS, default_pipeline
from repro.resilience.snapshot import ProcedureSnapshot


def run_proc_pass(guard, program, proc, name, run, pass_number=-1, phase="scalar"):
    """Run one per-procedure pass under isolation; False on rollback."""
    if name in guard.quarantined:
        return False
    snapshot = ProcedureSnapshot(proc)
    try:
        changed = bool(run(program, proc))
        if guard.verify_each_pass:
            verify_proc(program, proc)
        return changed
    except Exception as exc:
        if guard.strict:
            raise
        snapshot.restore(proc)
        guard._record(name, proc.name, pass_number, phase, exc)
        return False


def optimize_proc(
    program,
    proc,
    pipeline=None,
    max_iterations=MAX_ITERATIONS,
    guard=None,
    pass_number=-1,
    phase="scalar",
):
    if pipeline is None and proc.at_fixed_point:
        return False
    proc.at_fixed_point = False
    passes = list(pipeline) if pipeline is not None else default_pipeline()
    failures_before = len(guard.failures) if guard is not None else 0
    changed_any = False
    converged = False
    for _ in range(max_iterations):
        changed = False
        for name, run in passes:
            if guard is not None:
                if run_proc_pass(guard, program, proc, name, run, pass_number, phase):
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
