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
and skip the corresponding events entirely when a sink does not need
them, so a sink that only counts calls pays nothing per instruction.
The defaults are conservative (everything on): a sink written before
the flags existed keeps exact semantics.

Tokens and the tape
-------------------

The reference engine calls the ``on_*`` callbacks as each event
happens.  The fast engine (:mod:`repro.interp.engine`) makes no call
into the sink per event.  When it compiles a procedure, it asks the
sink to compile a *token* for each event the procedure can raise; when
the event happens, the engine appends that token to a list that
belongs to the run, the *tape*, and the sink consumes the tape in
order through one method, :meth:`EventSink.drain`.  Tokens are plain
values (the sink's own tuples, numbers, procedures), compiled once:

- **Fetches.**  The engine compiles each procedure into *parts*: a
  straight-line run of instructions and the call or terminator that
  ends it (a run that falls off its block has none).  It hands
  :meth:`EventSink.fetch_tokens` each part's fetch events, ``(proc,
  label, index, instr)`` in execution order; the sink splits them into
  groups of consecutive fetches and returns one token per group.  A
  group's token goes on the tape just before the group's last
  instruction executes: after the data accesses of the group's earlier
  instructions, never after its last one's.  A sink whose fetch work
  must precede an instruction's own data access ends a group at that
  instruction.
- **Control transfers.**  A conditional branch appends one of two
  tokens (:meth:`branch_token` compiled for each direction), a jump
  one.  A call appends its callee's user or builtin token
  (:meth:`call_token`); an indirect call's token is compiled with
  ``callee_name=None``, and the engine appends the callee's name, a
  ``str`` taken from the run, right after it.  A return appends the
  returning procedure's :meth:`return_token` and then the
  :meth:`resume_token` the sink compiled for the caller it resumes,
  which the engine finds on the caller's plan.  Either may be None: the
  sink needs nothing there.  When a part ends in a control transfer,
  the engine appends the part's last fetch group and the transfer as
  one token, :meth:`join` of the two.
- **Data accesses.**  A load appends its word address, an ``int``; a
  store appends ``~addr``, which is negative, so ``is_store`` is
  ``token < 0`` and the address ``~token``.

Delivery.  The fast engine calls :meth:`drain` when the tape passes a
fixed bound (``repro.interp.engine.TAPE_BOUND``), before any callback
it makes directly (``on_instr`` while it replays a part one
instruction at a time at the step limit, and for the fetches of a
trapping instruction's group whose token it had not appended), and
before ``Interpreter.run`` returns or raises, ``exit()`` included.  So
the fast engine delivers every event in order, in batches, and
completely before ``run`` returns or raises; the reference engine
delivers each as it happens.  A sink's state is complete when
``run_program`` returns.

On the fast engine a callback therefore runs at a drain, after its
event: the run may have gone on by up to a bound's worth of tokens.  A
sink must not count on acting on the program or on the run from a
callback; what it changes there takes effect from the drain on, not
from the event.  (A procedure that a callback swaps in reaches the
reference engine at its next call; the fast engine resolves each
callee once per run, so a callee the run has called keeps its old body
until the next run.)  Callbacks must not raise
either: on the fast engine the exception surfaces at the drain that
delivered the event, which may be the last one, while a trap, the step
limit or ``exit()`` unwinds the run.  It then propagates in place of
the run's own, which Python keeps as its ``__context__``; the reference
engine, too, raises the callback's exception, at the event, before the
run gets further.

:class:`EventSink`'s tokens and :meth:`drain` make exactly the
``on_*`` calls the reference engine makes, in the same order, so a
sink that overrides only ``on_*`` sees the same stream on both
engines.  A sink that compiles tokens of its own overrides
:meth:`drain` to consume them, and its ``on_*`` callbacks must do
what its tokens do.  Tokens must hold nothing of the sink or of a
run: plans are cached on the program, and other sinks whose class
has the same token methods and whose ``token_key`` is equal run the
same plans.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Tuple

from ..ir.instructions import Load, Store

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..ir.instructions import Instr
    from ..ir.procedure import Procedure

# A fetch event, ``(proc, label, index, instr)``.
Event = Tuple["Procedure", str, int, "Instr"]
Token = Any

#: The methods that compile a sink's tokens.  The fast engine keys its
#: plans on these functions of the sink's class and on ``token_key``.
TOKEN_METHODS = (
    "fetch_tokens",
    "branch_token",
    "call_token",
    "return_token",
    "resume_token",
    "join",
)

# Tags of the base class's tokens: ``(tag, payload)``.
_INSTR, _BRANCH, _CALL, _RETURN, _RESUME, _JOIN = range(6)

# The instructions that make data accesses.
_ACCESSES = (Load, Store)


class EventSink:
    """Base class with no-op callbacks; override what you consume.

    Override the ``needs_*`` class attributes to declare the callbacks
    the sink actually consumes (capability negotiation, see module
    docstring); leave them ``True`` for exact per-event delivery.

    Events arrive two ways (module docstring, "Tokens and the tape").
    The reference engine calls ``on_*`` as each event happens.  The fast
    engine appends the token the sink compiled for each event (the
    ``*_token`` methods and :meth:`fetch_tokens`; a data access is its
    address, a store's ``~addr``) to the run's tape and calls
    :meth:`drain` with it: in order and in batches, and completely
    before ``run`` returns or raises.  This class's tokens and
    :meth:`drain` turn the tape back into the ``on_*`` calls, so a
    subclass that overrides only ``on_*`` sees one stream on both
    engines.  On the fast engine those calls come at a drain, after
    their events, so a callback must not act on the program or the run
    expecting the event to be the latest, and must not raise (module
    docstring, "Delivery").
    """

    needs_instr = True
    needs_branch = True
    needs_call = True
    needs_return = True
    needs_mem = True
    # What this sink's tokens bind besides their events (a hashable
    # value, None for nothing).  The fast engine keys compiled plans on
    # it and on the class's TOKEN_METHODS, so sinks that agree on both
    # share plans.
    token_key = None

    # -- callbacks (the reference engine's delivery) ---------------------

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

    # -- tokens (the fast engine's delivery, see module docstring) -------

    def fetch_tokens(self, events: Sequence[Event]) -> List[Tuple[int, Token]]:
        """Compile one part's fetches into groups.

        ``events`` are the part's fetches in execution order.  Returns
        ``(count, token)`` pairs whose counts, each at least 1, sum to
        ``len(events)``: each token stands for ``on_instr`` on its
        ``count`` consecutive fetches.  Only data accesses happen
        between a part's fetches, so this one makes the part one group,
        or, when the sink takes data accesses, ends a group at each
        load and store, whose ``on_instr`` comes before its ``on_mem``.
        """
        if not self.needs_mem:
            return [(len(events), (_INSTR, tuple(events)))]
        groups = []
        first = 0
        for i, event in enumerate(events):
            if event[3].__class__ in _ACCESSES or i == len(events) - 1:
                groups.append((i + 1 - first, (_INSTR, tuple(events[first : i + 1]))))
                first = i + 1
        return groups

    def branch_token(self, proc, label, index, kind, taken, target_label) -> Token:
        """The token of one ``on_branch`` event."""
        return (_BRANCH, (proc, label, index, kind, taken, target_label))

    def call_token(self, caller, callee_name: Optional[str], kind, n_args) -> Token:
        """The token of one ``on_call`` event.  ``callee_name`` is None
        at an indirect call, whose token the callee's name follows."""
        return (_CALL, (caller, callee_name, kind, n_args))

    def return_token(self, callee_name: str) -> Token:
        """What a return from ``callee_name`` appends before the
        caller's :meth:`resume_token` (None: nothing)."""
        return (_RETURN, callee_name)

    def resume_token(self, caller) -> Token:
        """What a return into ``caller`` appends, after the returning
        procedure's :meth:`return_token` (None: nothing)."""
        return (_RESUME, caller)

    def join(self, first: Token, second: Token) -> Token:
        """One token that stands for ``first``, the token of the fetch
        group a part ends with, and then ``second``, the token of the
        part's control transfer."""
        return (_JOIN, (first, second))

    def drain(self, tape: Sequence[Token]) -> None:
        """Consume ``tape``'s tokens in order; the engine then empties it.

        This one makes the ``on_*`` calls its tokens stand for.
        """
        on_instr = self.on_instr
        on_branch = self.on_branch
        on_call = self.on_call
        on_return = self.on_return
        on_mem = self.on_mem
        tokens = iter(tape)
        for token in tokens:
            if type(token) is not tuple:  # a data access
                if token >= 0:
                    on_mem(token, False)
                else:
                    on_mem(~token, True)
                continue
            tag, payload = token
            if tag == _JOIN:
                (_instr, events), (tag, payload) = payload
                for proc, label, index, instr in events:
                    on_instr(proc, label, index, instr)
            if tag == _INSTR:
                for proc, label, index, instr in payload:
                    on_instr(proc, label, index, instr)
            elif tag == _BRANCH:
                proc, label, index, kind, taken, target_label = payload
                on_branch(proc, label, index, kind, taken, target_label)
            elif tag == _CALL:
                caller, callee_name, kind, n_args = payload
                if callee_name is None:
                    callee_name = next(tokens)
                on_call(caller, callee_name, kind, n_args)
            else:  # _RETURN, and the caller's resume token after it
                on_return(payload, next(tokens)[1])


class CountingSink(EventSink):
    """A cheap sink that tallies event counts; handy in tests.

    Counting commutes with every other event, so on the fast engine a
    token is a tuple of counts, ``(instrs, branches, calls, returns)``,
    and a whole part's instructions are one token.
    """

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

    def fetch_tokens(self, events):
        return [(len(events), (len(events), 0, 0, 0))]

    def branch_token(self, proc, label, index, kind, taken, target_label):
        return (0, 1, 0, 0)

    def call_token(self, caller, callee_name, kind, n_args):
        return (0, 0, 1, 0)

    def return_token(self, callee_name):
        return (0, 0, 0, 1)

    def resume_token(self, caller):
        return None

    def join(self, first, second):
        return tuple(a + b for a, b in zip(first, second))

    def drain(self, tape) -> None:
        instrs = branches = calls = returns = mems = 0
        for token in tape:
            cls = token.__class__
            if cls is tuple:
                i, b, c, r = token
                instrs += i
                branches += b
                calls += c
                returns += r
            elif cls is not str:  # not an indirect callee's name
                mems += 1
        self.instrs += instrs
        self.branches += branches
        self.calls += calls
        self.returns += returns
        self.mems += mems


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
