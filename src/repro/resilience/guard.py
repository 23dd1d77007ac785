"""The guarded pass runner: isolate, roll back, quarantine, bisect.

The HLO sits between front ends and the back end and must never turn a
working build into a broken one — a bad pass should degrade
*optimization quality*, not correctness.  The guard enforces that
contract mechanically, at two granularities.

**Scalar passes.**  A guarded ``optimize_proc`` call
(:meth:`PassGuard.checkpoint`) copies its procedure once, before its
first pass.  Each pass application runs with a step budget and, under
``verify_each_pass``, is verified.  When an application raises
(verifier failures included), the call restores its checkpoint,
replays in order every application of this call that succeeded before
it, records a structured :class:`~repro.core.report.PassFailure` on
the report, and lets the remaining pipeline continue.  The replay
reproduces the state a copy before each application would have kept:
the seven passes are deterministic and read only the procedure
(:mod:`repro.opt.pass_manager`), and the checkpoint also restores the
counters new register and label names come from.  Only a failing call
pays for the replay; a replay that raises leaves the procedure at the
checkpoint.  The scalar passes report nothing: the guard is
there to contain a buggy pass, and a buggy pass writes without saying
so.

**HLO stages.**  A guarded stage — clone, inline, outline, dead calls,
or one demand region (:meth:`PassGuard.run_program_stage`) — installs
a :class:`MutationRecord` on the program.  Those transforms are the
repo's own, and each of their edit sites reports before its first
write (``Program.report_body`` and its siblings), so the record saves
a procedure only when the stage first writes it.  On failure it
deletes what the stage added and restores the rest.  The same record
names what the stage mutated, for the
:class:`~repro.analysis.AnalysisManager` to invalidate.

A pass or stage that fails :data:`MAX_FAILURES` times is
**quarantined**: the guard stops running it for the rest of the build,
so one buggy pass cannot turn every procedure's compile into a
rollback treadmill.  A failed stage is bisected to the minimal failing
(pass, procedure) pair for the diagnostic.  Bisection tries each pair
on a detached copy and never writes the program, so the call sites a
demand plan holds for its later regions stay attached to it.

Every copy is built in this module through the module-level name
``ProcedureSnapshot``, which perfbench's tracer swaps to time and count
each one.  The tracer swaps ``ProgramSnapshot`` here too, so the name
stays importable from this module although nothing here builds one.

Under ``strict`` the first failure re-raises instead of degrading —
the CI / debugging mode where you want the crash, not the save.
``verify_each_pass`` verifies the IR after every guarded pass
application and stage, catching a corrupting pass at the point of
corruption instead of at HLO exit.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import (
    Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple, TypeVar,
)

from ..core.report import HLOReport, PassFailure
from ..ir.procedure import Procedure
from ..ir.program import Program
from ..ir.verifier import verify_proc, verify_program
from ..obs import names
from .snapshot import ProcedureSnapshot, ProgramSnapshot  # noqa: F401

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

    def checkpoint(
        self,
        program: Program,
        proc: Procedure,
        pass_number: int = -1,
        phase: str = "scalar",
    ) -> "GuardedCall":
        """Start one guarded ``optimize_proc`` call on ``proc`` (one copy)."""
        return GuardedCall(self, program, proc, pass_number, phase)

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
        """Run an HLO stage under isolation; ``default`` on rollback.

        The stage's writes are recorded on a :class:`MutationRecord`
        (``program.mutations`` while it runs), which undoes them when
        the stage raises.  When the stage is (or wraps) a scalar
        pipeline, pass it as ``bisect_pipeline`` so a failure is
        narrowed to the minimal failing (pass, procedure) pair before
        the stage is rolled back.
        """
        if name in self.quarantined:
            return default
        record = MutationRecord(program)
        program.mutations = record
        try:
            result = run()
            if self.verify_each_pass:
                verify_program(program)
            return result
        except Exception as exc:
            if self.strict:
                raise
            culprit = _culprit(program, bisect_pipeline)
            record.rollback()
            self._record(name, PROGRAM_SCOPE, pass_number, phase, exc, culprit=culprit)
            return default
        finally:
            program.mutations = None

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


class GuardedCall:
    """One guarded ``optimize_proc`` call: one checkpoint, replay on failure."""

    def __init__(
        self,
        guard: PassGuard,
        program: Program,
        proc: Procedure,
        pass_number: int,
        phase: str,
    ):
        self.guard = guard
        self.program = program
        self.proc = proc
        self.pass_number = pass_number
        self.phase = phase
        self.snapshot = ProcedureSnapshot(proc)
        # The applications that succeeded since the checkpoint, in order.
        self.applied: List[ProcPass] = []

    def run(self, name: str, run: ProcPass) -> bool:
        """Apply one pass; False when it is quarantined or rolled back."""
        guard = self.guard
        if name in guard.quarantined:
            return False
        try:
            changed = bool(run(self.program, self.proc))
            if guard.verify_each_pass:
                verify_proc(self.program, self.proc)
        except Exception as exc:
            if guard.strict:
                raise
            self._roll_back()
            guard._record(name, self.proc.name, self.pass_number, self.phase, exc)
            return False
        self.applied.append(run)
        return changed

    def _roll_back(self) -> None:
        """Return to the state before the failed application.

        The procedure goes back to the checkpoint and every application
        in :attr:`applied` runs again, unverified: the replay repeats
        work that already passed.  A replay that raises anyway (a pass
        that is not deterministic after all) must not escape the guard:
        the procedure then stays at the checkpoint, and the call's
        earlier work is dropped.
        """
        self.snapshot.restore(self.proc)
        try:
            for replay in self.applied:
                replay(self.program, self.proc)
        except Exception:
            self.snapshot.restore(self.proc)
            self.applied = []


class MutationRecord:
    """What one guarded HLO stage wrote, saved at each first write.

    Edit sites report through ``Program.report_*`` before they write:

    - the first body write (params, entry, instructions) or count write
      to a procedure copies it;
    - a linkage write keeps the symbol's old linkage;
    - a report on a procedure the stage added copies nothing;
    - a deleted procedure is kept, with its module's procedure order.
    """

    def __init__(self, program: Program):
        self.program = program
        self.bodies: Set[str] = set()
        self.counts: Set[str] = set()
        # name -> module of each procedure the stage added.
        self.added: Dict[str, str] = {}
        # "@proc" / "$global" -> (symbol, linkage before the stage).
        self.linkages: Dict[str, Tuple[object, str]] = {}
        self._snapshots: Dict[str, Tuple[Procedure, ProcedureSnapshot]] = {}
        self._deleted: Dict[str, Tuple[str, Procedure]] = {}
        self._orders: Dict[str, List[str]] = {}

    def _copy(self, proc: Procedure) -> None:
        name = proc.name
        if name not in self._snapshots and name not in self.added:
            self._snapshots[name] = (proc, ProcedureSnapshot(proc))

    def write_body(self, proc: Procedure) -> None:
        self._copy(proc)
        self.bodies.add(proc.name)

    def write_counts(self, proc: Procedure) -> None:
        self._copy(proc)
        self.counts.add(proc.name)

    def write_linkage(self, symbol) -> None:
        key = ("@" if isinstance(symbol, Procedure) else "$") + symbol.name
        if key not in self.linkages:
            self.linkages[key] = (symbol, symbol.linkage)

    def add(self, proc: Procedure) -> None:
        self.added[proc.name] = proc.module

    def delete(self, module, proc: Procedure) -> None:
        if self.added.pop(proc.name, None) is not None:
            return
        self._orders.setdefault(module.name, list(module.procs))
        self._deleted[proc.name] = (module.name, proc)

    def mutated(self) -> Set[str]:
        """Procedures whose body or counts changed, or that were added:
        the names whose memoized analyses went stale."""
        return self.bodies | self.counts | set(self.added)

    def rollback(self) -> None:
        """Undo every recorded write; the program is as the stage found it."""
        modules = self.program.modules
        for name, module in self.added.items():
            modules[module].remove_proc(name)
        for proc, snapshot in self._snapshots.values():
            snapshot.restore(proc)
        for symbol, linkage in self.linkages.values():
            symbol.linkage = linkage
        for module_name, order in self._orders.items():
            mod = modules[module_name]
            procs = dict(mod.procs)
            procs.update(
                (name, proc)
                for name, (home, proc) in self._deleted.items()
                if home == module_name
            )
            mod.set_procs({name: procs[name] for name in order if name in procs})


@contextmanager
def recording(program: Program) -> Iterator[MutationRecord]:
    """The running stage's record, or a fresh one for the duration.

    The clone, inline and demand-region transforms invalidate analyses
    by the names on the record, so they need one even when they run
    outside a guarded stage (as unit tests call them); nothing rolls
    that one back.
    """
    if program.mutations is not None:
        yield program.mutations
        return
    program.mutations = MutationRecord(program)
    try:
        yield program.mutations
    finally:
        program.mutations = None


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

    Applies every (pass, procedure) combination in isolation, each to a
    detached copy of the procedure, and returns the first pair whose
    application raises (or breaks the verifier).  The program is never
    written, so call sites held elsewhere (a demand plan's) stay
    attached to it.  Returns ``None`` when no single pair reproduces
    the failure (e.g. the bug needs a multi-procedure interaction).
    """
    for name, run in pipeline:
        for proc in program.all_procs():
            copy = ProcedureSnapshot(proc).materialize(proc.module)
            try:
                run(program, copy)
                verify_proc(program, copy)
            except Exception:
                return (name, proc.name)
    return None
