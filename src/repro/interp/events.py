"""Execution event stream consumed by trace-driven models.

The interpreter optionally streams its dynamic behaviour to an
:class:`EventSink`; the PA8000 machine model is the main consumer.  The
callbacks deliberately carry *IR-level* identities (procedure, block
label, instruction index) — the machine model owns the mapping from
those identities to code addresses via its layout.

Capability negotiation
----------------------

A sink *declares* which callbacks it consumes through the class-level
``needs_*`` flags.  Both execution engines read the flags once per run
and skip the corresponding callback entirely when a sink does not need
it, so a sink that only counts calls pays nothing per instruction.  The
defaults are conservative (everything on): a sink written before the
flags existed keeps exact semantics.

``batch_instr`` is a stronger opt-in for order-insensitive sinks: the
fast engine may *replay* a straight-line run's ``on_instr`` events in
one batch at the start of the run instead of interleaving them with
execution.  The event sequence delivered for any normally
terminating program is identical (only ``on_instr`` events occur inside
a straight-line run, and they are replayed in order before the run's
call/branch event fires); a sink that inspects interpreter side effects
between events must leave it off.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..ir.instructions import Instr
    from ..ir.procedure import Procedure


class EventSink:
    """Base class with no-op callbacks; override what you consume.

    Override the ``needs_*`` class attributes to declare the callbacks
    the sink actually consumes (capability negotiation, see module
    docstring); leave them ``True`` for exact per-event delivery.
    """

    needs_instr = True
    needs_branch = True
    needs_call = True
    needs_return = True
    needs_mem = True
    # Opt-in: on_instr events for a straight-line run may be delivered
    # as one in-order batch at the start of the run (fast engine; the
    # reference engine always interleaves).
    batch_instr = False

    def on_instr(self, proc: "Procedure", label: str, index: int, instr: "Instr") -> None:
        """An IR instruction was executed."""

    def on_branch(
        self,
        proc: "Procedure",
        label: str,
        index: int,
        kind: str,
        taken: bool,
        target_label: str,
    ) -> None:
        """A control transfer resolved.  ``kind`` is ``cond``/``jump``."""

    def on_call(self, caller: "Procedure", callee_name: str, kind: str, n_args: int) -> None:
        """A call executed.  ``kind`` is ``direct``/``indirect``/``builtin``."""

    def on_return(self, callee_name: str, caller: "Procedure") -> None:
        """A procedure returned to ``caller`` (builtins excluded)."""

    def on_mem(self, addr: int, is_store: bool) -> None:
        """A data memory access at word address ``addr``."""


class CountingSink(EventSink):
    """A cheap sink that tallies event counts; handy in tests.

    Counting is order-insensitive, so it opts into block-batched
    ``on_instr`` replay — the canonical "counting-only" sink the fast
    engine's batched mode exists for.
    """

    batch_instr = True

    def __init__(self) -> None:
        self.instrs = 0
        self.branches = 0
        self.calls = 0
        self.returns = 0
        self.mems = 0

    def on_instr(self, proc, label, index, instr) -> None:
        self.instrs += 1

    def on_branch(self, proc, label, index, kind, taken, target_label) -> None:
        self.branches += 1

    def on_call(self, caller, callee_name, kind, n_args) -> None:
        self.calls += 1

    def on_return(self, callee_name, caller) -> None:
        self.returns += 1

    def on_mem(self, addr, is_store) -> None:
        self.mems += 1


class RecordingSink(EventSink):
    """Records the full event stream as comparable tuples.

    The differential harness (:mod:`repro.interp.diff`) runs one of
    these under each engine and asserts the streams are identical, so
    every field that identifies an event is captured.  Procedures are
    recorded by name (the objects are shared anyway) and instructions
    by class name, which keeps the tuples cheap to compare and print.
    """

    def __init__(self) -> None:
        self.events: List[Tuple] = []

    def on_instr(self, proc, label, index, instr) -> None:
        self.events.append(("instr", proc.name, label, index, instr.__class__.__name__))

    def on_branch(self, proc, label, index, kind, taken, target_label) -> None:
        self.events.append(("branch", proc.name, label, index, kind, taken, target_label))

    def on_call(self, caller, callee_name, kind, n_args) -> None:
        self.events.append(("call", caller.name, callee_name, kind, n_args))

    def on_return(self, callee_name, caller) -> None:
        self.events.append(("return", callee_name, caller.name))

    def on_mem(self, addr, is_store) -> None:
        self.events.append(("mem", addr, is_store))
