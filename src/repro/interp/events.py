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

Fetch groups
------------

The fast engine (:mod:`repro.interp.engine`) compiles each procedure
into *parts*: a straight-line run of instructions and the call or
terminator that ends it (a run that falls off its block has none).
When a sink needs ``on_instr``, the engine hands
:meth:`EventSink.fetch_groups` each part's fetch events, ``(proc,
label, index, instr)`` in execution order, while it compiles the part.
The sink splits them into groups of consecutive fetches and returns
one *hook* per group, which the engine runs in place of the group's
``on_instr`` calls, just before the group's last instruction executes.
A group's work may thus come after the ``on_mem`` events of the
group's earlier instructions, never after its last one's: a sink whose
``on_instr`` work must precede an instruction's own event ends a group
at that instruction.  The base class makes one group per instruction
(``on_instr`` exactly interleaved); :class:`CountingSink` makes one
per part.

``on_instr`` stays part of the contract: the reference engine calls it
for every instruction; the fast engine calls it, instead of hooks,
when the step limit falls inside a part (the part is replayed one
instruction at a time) and when an instruction traps before its
group's hook has run (for the group's fetches from its first through
the faulting one).  So whatever a sink's hooks do must equal its
``on_instr`` calls, and the event stream a sink sees is the reference
engine's up to the order of ``on_instr`` work against the ``on_mem``
events inside a group.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..ir.instructions import Instr
    from ..ir.procedure import Procedure

# A fetch event, ``(proc, label, index, instr)``, and a fetch-group hook,
# called as ``hook(state, regs)``.
Event = Tuple["Procedure", str, int, "Instr"]
Hook = Callable[[Any, list], None]


def _instr_hook(proc, label, index, instr) -> Hook:
    """The base class's hook: one ``on_instr`` call."""

    def hook(state, regs, _p=proc, _l=label, _i=index, _n=instr):
        state.sink.on_instr(_p, _l, _i, _n)

    return hook


def _count_hook(count: int) -> Hook:
    """:class:`CountingSink`'s hook: ``count`` instructions at once."""

    def hook(state, regs, _c=count):
        state.sink.instrs += _c

    return hook


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
    # What this sink's fetch-group hooks bind besides their events (a
    # hashable value, None for nothing).  The fast engine keys compiled
    # plans on it and on the class's fetch_groups, so sinks that agree
    # on both share plans.
    fetch_key = None

    def on_instr(self, proc: "Procedure", label: str, index: int, instr: "Instr") -> None:
        """An IR instruction was executed."""

    def fetch_groups(self, events: Sequence[Event]) -> List[Tuple[int, Hook]]:
        """Compile one part's ``on_instr`` work (see module docstring).

        ``events`` are the part's fetches in execution order.  Returns
        ``(count, hook)`` pairs whose counts, each at least 1, sum to
        ``len(events)``: each hook stands for ``on_instr`` on its
        ``count`` consecutive fetches.  The engine calls a hook like one
        of the plan's own instructions, as ``hook(state, regs)``, where
        ``state.sink`` is the sink of the run.  A hook must not raise,
        and must hold nothing of the sink itself: plans are cached on
        the program, and other sinks with the same ``fetch_key`` run the
        same plan.  This one makes one group per fetch that calls
        ``on_instr``.
        """
        return [(1, _instr_hook(*event)) for event in events]

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

    Counting commutes with every other event, so the fast engine counts
    a whole part's instructions with one hook.
    """

    def __init__(self) -> None:
        self.instrs = 0
        self.branches = 0
        self.calls = 0
        self.returns = 0
        self.mems = 0

    def on_instr(self, proc, label, index, instr) -> None:
        self.instrs += 1

    def fetch_groups(self, events):
        return [(len(events), _count_hook(len(events)))]

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
