"""The guarded pass runner: isolate, roll back, quarantine, bisect.

The HLO sits between front ends and the back end and must never turn a
working build into a broken one — a bad pass should degrade
*optimization quality*, not correctness.  The guard enforces that
contract mechanically:

1. snapshot the IR a pass is about to mutate;
2. run the pass with a step budget;
3. optionally verify the result;
4. on any exception (including verifier failures), restore the
   snapshot, record a structured :class:`~repro.core.report.PassFailure`
   on the report, and let the remaining pipeline continue.

A pass that fails :data:`MAX_FAILURES` times is **quarantined**: the
guard stops running it for the rest of the build, so one buggy pass
cannot turn every procedure's compile into a snapshot/rollback
treadmill.  A failed program or region stage is bisected to the
minimal failing (pass, procedure) pair for the diagnostic.

Under ``strict`` the first failure re-raises instead of degrading —
the CI / debugging mode where you want the crash, not the save.
``verify_each_pass`` verifies the IR after every guarded pass
application, catching a corrupting pass at the point of corruption
instead of at HLO exit.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from ..core.report import HLOReport, PassFailure
from ..ir.procedure import Procedure
from ..ir.program import Program
from ..ir.verifier import verify_proc, verify_program
from ..obs import names
from .snapshot import ProcedureSnapshot, ProgramSnapshot

T = TypeVar("T")

ProcPass = Callable[[Program, Procedure], bool]

PROGRAM_SCOPE = "<program>"

# Failures of one pass before it is quarantined for the build.
MAX_FAILURES = 2


class PassGuard:
    """Per-build failure containment shared by every guarded stage."""

    def __init__(self, report: Optional[HLOReport] = None, observer=None,
                 strict: bool = False, verify_each_pass: bool = False):
        from ..obs import NULL_OBSERVER

        self.report = report
        self.strict = strict
        self.verify_each_pass = verify_each_pass
        self.observer = observer if observer is not None else NULL_OBSERVER
        self.failure_counts: Dict[str, int] = {}
        self.failures: List[PassFailure] = []
        self.quarantined: set = set()

    # ------------------------------------------------------------------
    # Guarded execution
    # ------------------------------------------------------------------

    def run_proc_pass(
        self,
        program: Program,
        proc: Procedure,
        name: str,
        run: ProcPass,
        pass_number: int = -1,
        phase: str = "scalar",
    ) -> bool:
        """Run one per-procedure pass under isolation; False on rollback."""
        if name in self.quarantined:
            return False
        snapshot = ProcedureSnapshot(proc)
        try:
            changed = bool(run(program, proc))
            if self.verify_each_pass:
                verify_proc(program, proc)
            return changed
        except Exception as exc:
            if self.strict:
                raise
            snapshot.restore(proc)
            self._record(name, proc.name, pass_number, phase, exc)
            return False

    def run_program_stage(
        self,
        program: Program,
        name: str,
        run: Callable[[], T],
        pass_number: int = -1,
        phase: str = "input",
        default: Optional[T] = None,
        bisect_pipeline: Optional[Sequence[Tuple[str, ProcPass]]] = None,
    ) -> Optional[T]:
        """Run a whole-program stage under isolation; ``default`` on rollback.

        When the stage is (or wraps) a scalar pipeline, pass it as
        ``bisect_pipeline`` so a failure is narrowed to the minimal
        failing (pass, procedure) pair before the snapshot is restored.
        """
        if name in self.quarantined:
            return default
        snapshot = ProgramSnapshot(program)
        try:
            result = run()
            if self.verify_each_pass:
                verify_program(program)
            return result
        except Exception as exc:
            if self.strict:
                raise
            culprit = _culprit(program, bisect_pipeline)
            snapshot.restore(program)
            self._record(name, PROGRAM_SCOPE, pass_number, phase, exc, culprit=culprit)
            return default

    def run_region_stage(
        self,
        program: Program,
        procs: Sequence[str],
        name: str,
        run: Callable[[], T],
        pass_number: int = -1,
        phase: str = "region",
        default: Optional[T] = None,
        bisect_pipeline: Optional[Sequence[Tuple[str, ProcPass]]] = None,
    ) -> Optional[T]:
        """Run a stage that only mutates ``procs`` (plus additions).

        The region-scoped sibling of :meth:`run_program_stage`: the
        snapshot covers only the named procedures, so a 1000-module
        program doesn't pay a whole-program IR copy for every small
        region the demand planner optimizes.  The *caller* owns the
        scoping contract — a stage that mutates a procedure outside
        ``procs`` and then fails will not have that procedure restored.
        New procedures the stage adds (clones) are deleted on rollback.
        """
        if name in self.quarantined:
            return default
        snapshots = []
        for proc_name in procs:
            proc = program.proc(proc_name)
            if proc is not None:
                snapshots.append(ProcedureSnapshot(proc))
        names_before = {proc.name for proc in program.all_procs()}
        try:
            result = run()
            if self.verify_each_pass:
                verify_program(program)
            return result
        except Exception as exc:
            if self.strict:
                raise
            culprit = _culprit(program, bisect_pipeline)
            for proc in list(program.all_procs()):
                if proc.name not in names_before:
                    program.delete_proc(proc.name)
            for snapshot in snapshots:
                proc = program.proc(snapshot.name)
                if proc is not None:
                    snapshot.restore(proc)
            self._record(name, PROGRAM_SCOPE, pass_number, phase, exc, culprit=culprit)
            return default

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------

    def _record(
        self,
        name: str,
        proc: str,
        pass_number: int,
        phase: str,
        exc: Exception,
        culprit: str = "",
    ) -> None:
        count = self.failure_counts.get(name, 0) + 1
        self.failure_counts[name] = count
        quarantined = count >= MAX_FAILURES
        if quarantined:
            self.quarantined.add(name)
        failure = PassFailure(
            pass_name=name,
            proc=proc,
            pass_number=pass_number,
            phase=phase,
            error_type=type(exc).__name__,
            error=str(exc) or repr(exc),
            quarantined=quarantined,
            culprit=culprit,
        )
        self.failures.append(failure)
        if self.report is not None:
            self.report.record_pass_failure(failure)
        # A rollback is a moment, not a duration: an instant event at
        # the point the guard caught it, so the trace shows exactly
        # where the degraded build diverged from the healthy one.
        self.observer.tracer.instant(
            "pass-failure:{}".format(name),
            cat="resilience",
            proc=proc,
            phase=phase,
            pass_number=pass_number,
            error=type(exc).__name__,
            quarantined=quarantined,
        )
        self.observer.metrics.count(names.RESILIENCE_ROLLBACKS)


def _culprit(
    program: Program, pipeline: Optional[Sequence[Tuple[str, ProcPass]]]
) -> str:
    """The bisected "pass on @proc" diagnostic, or "" when unknown."""
    pair = bisect_failure(program, pipeline) if pipeline is not None else None
    return "{} on @{}".format(pair[0], pair[1]) if pair is not None else ""


def bisect_failure(
    program: Program,
    pipeline: Sequence[Tuple[str, ProcPass]],
) -> Optional[Tuple[str, str]]:
    """Find the minimal failing (pass name, procedure name) pair.

    Applies every (pass, procedure) combination in isolation, rolling
    each attempt back whether or not it fails, and returns the first
    pair whose application raises (or breaks the verifier).  The
    program is left exactly as it was found.  Returns ``None`` when no
    single pair reproduces the failure (e.g. the bug needs a
    multi-procedure interaction).
    """
    whole = ProgramSnapshot(program)
    try:
        for name, run in pipeline:
            for proc in list(program.all_procs()):
                snapshot = ProcedureSnapshot(proc)
                try:
                    run(program, proc)
                    verify_proc(program, proc)
                except Exception:
                    return (name, proc.name)
                finally:
                    snapshot.restore(proc)
        return None
    finally:
        whole.restore(program)
