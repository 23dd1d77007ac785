"""Pre-decoded threaded-dispatch execution engine (``engine="fast"``).

The reference interpreter loop re-fetches blocks by label, re-decodes
operands, and tests for a sink on every instruction.  This module
compiles each procedure once into an :class:`ExecPlan` — per-block lists
of bound Python closures with all of that decoding done ahead of time
(classic threaded-code / pre-decoding, cf. Ertl & Gregg):

- register names are resolved to integer *slots* into a flat list,
- immediates, global addresses, and function references are folded to
  constants (the globals layout is deterministic per program; a
  program-level globals signature guards the embedded addresses),
- straight-line instruction runs become *segments* that are fused into
  the call/branch/jump/ret part that follows them, so a typical basic
  block executes as ONE closure with ONE batched step-limit check (an
  exact per-instruction replay handles the case where the limit falls
  inside the segment),
- block successors are pre-linked to plan blocks, so the label->block
  dict lookup leaves the inner loop entirely,
- sink capability flags (:class:`~repro.interp.events.EventSink`) are
  burned into the compiled closures: modes that need no event carry no
  event code at all, and every event a sink needs is one append of a
  token the sink compiled with the plan onto the run's *tape*, which
  the sink consumes in order through ``drain`` (see
  :mod:`repro.interp.events`, "Tokens and the tape").  The parts make
  no call into the sink; they reach the tape through the run state, so
  a plan holds nothing of a sink or of a run.  The engine drains the
  tape when it passes :data:`~repro.interp.events.TAPE_BOUND`, before
  it calls ``on_instr`` directly, and before the run returns or raises.

Plans are cached on the :class:`~repro.ir.Program` (keyed by procedure
name and sink-capability mode, which names the sink's token methods)
and validated against a procedure fingerprint on every run, so repeated
train/eval runs over an unchanged build reuse decoded code while
transforms transparently invalidate it.

Observable behaviour — ``Result`` fields, sink event streams, trap
messages and positions, and ``Interpreter.steps`` after a trap — is
kept identical to the reference engine and is asserted by the
differential harness (:mod:`repro.interp.diff`).  A fused part counts
its whole segment up front; when an op in it traps, the part resets the
count to end at that op, and delivers the ``on_instr`` events of the
fetches whose group token is not on the tape yet, before the trap
propagates.
"""

from __future__ import annotations

import hashlib
import operator
from typing import Any, Dict, List, Optional, Tuple

from ..ir.instructions import (
    Alloca,
    BinOp,
    Branch,
    Call,
    ICall,
    Jump,
    Load,
    Mov,
    Probe,
    Ret,
    Store,
    UnOp,
)
from ..ir.ops import INT_MASK, INT_MAX, EvalError, eval_binop, eval_unop, wrap_int
from ..ir.printer import print_proc
from ..ir.procedure import ATTR_VARARGS, Procedure
from ..ir.values import FuncRef, GlobalRef, Imm, Reg
from .errors import ExecError, StepLimitExceeded
from .events import TAPE_BOUND, TOKEN_METHODS
from .memory import CodePtr

# interpreter.py never imports this module at top level (the fast path
# is loaded lazily from Interpreter.run), so this import is cycle-free.
from .interpreter import STACK_LIMIT_FRAMES as _STACK_LIMIT  # noqa: E402
from .interpreter import Result, _Exit  # noqa: E402

_MASK = INT_MASK
_IMAX = INT_MAX
_TWO64 = 1 << 64

# Unique sentinels.  _UNSET fills never-written register slots (reads of
# it raise the reference engine's unset-register trap); the others drive
# the part protocol of the executor loop.
_UNSET = object()
_ENTER = object()
_RETURN = object()
_DONE = object()
_MISS = object()

# Shared empty varargs list for non-varargs frames.  The varargs
# builtins only ever read ``frame.varargs``, so sharing one list avoids
# an allocation per call.
_NO_VARARGS: List[Any] = []

_NO_SINK = (None, False, False, False, False, False)


def _fingerprint(proc: Procedure) -> str:
    """Content hash of a procedure's printed form (plan invalidation)."""
    return hashlib.sha256(print_proc(proc).encode("utf-8")).hexdigest()


def sink_mode(sink) -> tuple:
    """The capability mode tuple a plan is specialized (and keyed) on:
    ``(tokens, instr, branch, call, ret, mem)``.  ``tokens`` is what the
    sink's tokens are compiled from, the class's token methods and the
    sink's ``token_key``; None when the sink compiles none (it takes no
    event, or only data accesses, whose tokens are addresses)."""
    if sink is None:
        return _NO_SINK
    needs = (
        bool(sink.needs_instr),
        bool(sink.needs_branch),
        bool(sink.needs_call),
        bool(sink.needs_return),
    )
    if not any(needs):
        return (None,) + needs + (bool(sink.needs_mem),)
    cls = type(sink)
    tokens = tuple(getattr(cls, name) for name in TOKEN_METHODS) + (sink.token_key,)
    return (tokens,) + needs + (bool(sink.needs_mem),)


def _drain(st) -> None:
    """Deliver the run's tape to its sink, in order, and empty it."""
    tape = st.tape
    try:
        st.sink.drain(tape)
    finally:
        tape.clear()


def _putter(token):
    """A plan op that appends ``token`` to the tape: the token of a
    fetch group that ends inside a segment, run just before the group's
    last instruction."""

    def put(st, regs, _t=token):
        st.tape.append(_t)

    return put


def _unset(name: str, procname: str) -> None:
    raise ExecError("read of unset register %{} in @{}".format(name, procname))


# ----------------------------------------------------------------------
# Binary-op micro-op bodies.  The int/int fast path is inlined; every
# other case funnels through _binop_slow, which replicates the reference
# engine's evaluation order and error messages exactly.
# ----------------------------------------------------------------------


def _binop_slow(regs, d, op, x, y, ln, rn, pn, lb, ix):
    if x is _UNSET:
        _unset(ln, pn)
    if y is _UNSET:
        _unset(rn, pn)
    if isinstance(x, CodePtr) or isinstance(y, CodePtr):
        if op == "eq":
            regs[d] = 1 if x == y else 0
            return
        if op == "ne":
            regs[d] = 0 if x == y else 1
            return
        raise ExecError("arithmetic on code pointer", pn, lb, ix)
    try:
        regs[d] = eval_binop(op, x, y)
    except (EvalError, TypeError) as ex:
        raise ExecError(str(ex), pn, lb, ix)


def _arith_factory(iop):
    def make(d, ls, lc, ln, rs, rc, rn, op, pn, lb, ix):
        def mo(st, regs, _d=d, _ls=ls, _lc=lc, _rs=rs, _rc=rc, _iop=iop):
            x = regs[_ls] if _ls >= 0 else _lc
            y = regs[_rs] if _rs >= 0 else _rc
            if type(x) is int and type(y) is int:
                v = _iop(x, y) & _MASK
                regs[_d] = v - _TWO64 if v > _IMAX else v
            else:
                _binop_slow(regs, _d, op, x, y, ln, rn, pn, lb, ix)

        return mo

    return make


def _bitwise_factory(iop):
    def make(d, ls, lc, ln, rs, rc, rn, op, pn, lb, ix):
        def mo(st, regs, _d=d, _ls=ls, _lc=lc, _rs=rs, _rc=rc, _iop=iop):
            x = regs[_ls] if _ls >= 0 else _lc
            y = regs[_rs] if _rs >= 0 else _rc
            if type(x) is int and type(y) is int:
                v = _iop(x & _MASK, y & _MASK)
                regs[_d] = v - _TWO64 if v > _IMAX else v
            else:
                _binop_slow(regs, _d, op, x, y, ln, rn, pn, lb, ix)

        return mo

    return make


def _cmp_factory(cop):
    def make(d, ls, lc, ln, rs, rc, rn, op, pn, lb, ix):
        def mo(st, regs, _d=d, _ls=ls, _lc=lc, _rs=rs, _rc=rc, _cop=cop):
            x = regs[_ls] if _ls >= 0 else _lc
            y = regs[_rs] if _rs >= 0 else _rc
            if type(x) is int and type(y) is int:
                regs[_d] = 1 if _cop(x, y) else 0
            else:
                _binop_slow(regs, _d, op, x, y, ln, rn, pn, lb, ix)

        return mo

    return make


def _generic_binop(d, ls, lc, ln, rs, rc, rn, op, pn, lb, ix):
    def mo(st, regs, _d=d, _ls=ls, _lc=lc, _rs=rs, _rc=rc):
        x = regs[_ls] if _ls >= 0 else _lc
        y = regs[_rs] if _rs >= 0 else _rc
        _binop_slow(regs, _d, op, x, y, ln, rn, pn, lb, ix)

    return mo


def _div_binop(d, ls, lc, ln, rs, rc, rn, op, pn, lb, ix):
    is_mod = op == "mod"

    def mo(st, regs, _d=d, _ls=ls, _lc=lc, _rs=rs, _rc=rc, _m=is_mod):
        x = regs[_ls] if _ls >= 0 else _lc
        y = regs[_rs] if _rs >= 0 else _rc
        if type(x) is int and type(y) is int and y != 0:
            # C-style truncation toward zero (cf. ops._trunc_div).
            q = abs(x) // abs(y)
            if (x < 0) != (y < 0):
                q = -q
            v = (x - q * y) if _m else q
            v &= _MASK
            regs[_d] = v - _TWO64 if v > _IMAX else v
        else:
            _binop_slow(regs, _d, op, x, y, ln, rn, pn, lb, ix)

    return mo


def _shift_binop(d, ls, lc, ln, rs, rc, rn, op, pn, lb, ix):
    is_shl = op == "shl"

    def mo(st, regs, _d=d, _ls=ls, _lc=lc, _rs=rs, _rc=rc, _shl=is_shl):
        x = regs[_ls] if _ls >= 0 else _lc
        y = regs[_rs] if _rs >= 0 else _rc
        if type(x) is int and type(y) is int:
            if _shl:
                v = ((x & _MASK) << (y % 64)) & _MASK
            else:
                v = (x >> (y % 64)) & _MASK
            regs[_d] = v - _TWO64 if v > _IMAX else v
        else:
            _binop_slow(regs, _d, op, x, y, ln, rn, pn, lb, ix)

    return mo


_BINOP_FACTORIES = {
    "add": _arith_factory(operator.add),
    "sub": _arith_factory(operator.sub),
    "mul": _arith_factory(operator.mul),
    "div": _div_binop,
    "mod": _div_binop,
    "shl": _shift_binop,
    "shr": _shift_binop,
    "and": _bitwise_factory(operator.and_),
    "or": _bitwise_factory(operator.or_),
    "xor": _bitwise_factory(operator.xor),
    "eq": _cmp_factory(operator.eq),
    "ne": _cmp_factory(operator.ne),
    "lt": _cmp_factory(operator.lt),
    "le": _cmp_factory(operator.le),
    "gt": _cmp_factory(operator.gt),
    "ge": _cmp_factory(operator.ge),
}


# ----------------------------------------------------------------------
# Plan data structures
# ----------------------------------------------------------------------


class PlanBlock:
    """A pre-decoded basic block: a list of *part* closures.

    Each part returns ``None`` (fall through to the next part), a
    ``PlanBlock`` (control transfer), or one of the executor sentinels
    (_ENTER/_RETURN/_DONE).  ``key`` is the ``block_counts`` key, or
    ``None`` for the synthetic missing-block trampoline.
    """

    __slots__ = ("label", "key", "parts")

    def __init__(self, label: str, key):
        self.label = label
        self.key = key
        self.parts: List[Any] = []


class ExecPlan:
    """A procedure compiled for one sink-capability mode."""

    __slots__ = (
        "proc",
        "entry",
        "blocks",
        "nslots",
        "param_slots",
        "nparams",
        "is_varargs",
        "simple_frame",
        "pad",
        "fingerprint",
        "mode",
        "rtok",
    )

    def __init__(self, proc: Procedure, mode, fingerprint: str):
        self.proc = proc
        self.mode = mode
        self.fingerprint = fingerprint
        # The sink's resume token: what a return into this procedure
        # appends after the returning procedure's token (None: nothing).
        self.rtok = None
        self.blocks: Dict[str, PlanBlock] = {}
        self.entry: Optional[PlanBlock] = None
        self.nslots = 0
        self.param_slots: List[int] = []
        self.nparams = len(proc.params)
        self.is_varargs = ATTR_VARARGS in proc.attrs
        # simple_frame: non-varargs with params occupying the slot
        # prefix in order — the call part then builds the register file
        # by extending the freshly built argument list with ``pad``
        # (pre-sized _UNSET filler) instead of scattering through
        # param_slots.  Duplicate parameter names (slot reuse) fall back
        # to the generic push.
        self.simple_frame = False
        self.pad: tuple = ()


class PlanCache:
    """Per-program plan store, attached to ``Program._plan_cache``.

    Keyed by ``(procedure name, mode)``; entries self-validate against
    the procedure's content fingerprint on lookup, and the whole cache
    is cleared when the program's globals layout signature changes
    (plans embed resolved global addresses).
    """

    __slots__ = ("plans", "globals_sig", "plans_compiled", "cache_hits")

    def __init__(self) -> None:
        self.plans: Dict[Tuple[str, tuple], ExecPlan] = {}
        self.globals_sig = None
        self.plans_compiled = 0
        self.cache_hits = 0

    def check_globals(self, program) -> None:
        sig = tuple((g.name, g.size) for g in program.all_globals())
        if self.globals_sig != sig:
            self.plans.clear()
            self.globals_sig = sig

    def get_plan(self, proc: Procedure, mode, global_addrs, sink) -> ExecPlan:
        key = (proc.name, mode)
        plan = self.plans.get(key)
        fp = _fingerprint(proc)
        if plan is not None and plan.fingerprint == fp:
            self.cache_hits += 1
            return plan
        plan = _PlanCompiler(proc, mode, global_addrs, fp, sink).compile()
        self.plans[key] = plan
        self.plans_compiled += 1
        return plan


class _BadOperand(Exception):
    """Compile-time marker: an operand cannot be pre-resolved (unknown
    global / unknown operand class); the instruction compiles to a
    closure that traps at the reference engine's exact raise point."""

    def __init__(self, specs):
        self.specs = specs
        super().__init__("bad operand")


def _raise_walk(specs, procname, label, idx):
    """Replicate reference operand evaluation for a trapping instruction:
    walk the operand specs in evaluation order, raising where the
    reference engine would.  Spec kinds: 0 slot, 1 const, 2 unknown
    global, 3 icall non-code check, 4 unknown operand class."""

    def mo(st, regs):
        last = None
        for spec in specs:
            k = spec[0]
            if k == 0:
                v = regs[spec[1]]
                if v is _UNSET:
                    _unset(spec[2], procname)
                last = v
            elif k == 1:
                last = spec[1]
            elif k == 2:
                raise ExecError("unknown global ${}".format(spec[1]))
            elif k == 3:
                if not isinstance(last, CodePtr):
                    raise ExecError(
                        "indirect call through non-code value {!r}".format(last),
                        procname,
                        label,
                        idx,
                    )
            else:
                raise ExecError("unknown operand {!r}".format(spec[1]))
        raise ExecError(
            "internal: trapping instruction fell through"
        )  # pragma: no cover

    return mo


def _replay(st, frame, ops, events, fire_instr):
    """Exact per-instruction execution of a segment whose batched step
    check found the limit inside it.  Mirrors the reference loop: bump,
    check, (on_instr), execute — so the raise position and the event
    stream are identical to ``engine="reference"``.  The ops are the
    segment's own, which append only their data accesses, so each
    direct ``on_instr`` call first drains what came before it."""
    regs = frame.regs
    steps = st.steps
    max_steps = st.max_steps
    sink = st.sink
    i = 0
    try:
        for op in ops:
            ev = events[i]
            steps += 1
            if steps > max_steps:
                raise StepLimitExceeded(
                    "step limit {} exceeded".format(max_steps),
                    ev[0].name,
                    ev[1],
                    ev[2],
                )
            if fire_instr:
                if st.tape:
                    _drain(st)
                sink.on_instr(ev[0], ev[1], ev[2], ev[3])
            op(st, regs)
            i += 1
    finally:
        st.steps = steps
    # Reached when the limit lands exactly on the fused boundary
    # instruction: the segment itself completes, _seg_overflow raises.
    return None


def _trapped(st, ns, trap, op):
    """``op`` of a fused part trapped: finish the reference's accounting.

    The part counted ``ns`` up front, through its last instruction.
    Like the reference loop, count through the faulting op and no
    further, and deliver ``on_instr`` for the fetches whose group token
    is not on the tape: those of the faulting op's group, from its
    first through the faulting one, when the group's token had not been
    appended yet.  Each op is its own closure, so ``trap`` (see
    ``_seg_bundle``) finds the one that raised; a token is appended
    before anything in its op can raise.
    """
    after, late = trap[op]
    st.steps = ns - after
    if late:
        _drain(st)
        on_instr = st.sink.on_instr
        for e in late:
            on_instr(e[0], e[1], e[2], e[3])


def _seg_overflow(st, frame, ops, events, fire_instr, pn, lb, ix):
    """The batched step check of a fused segment+boundary part found the
    limit.  Replay the segment exactly (raising at the precise inner
    instruction when the limit falls there), then account the boundary
    instruction's own step and raise at the boundary.  Never returns."""
    _replay(st, frame, ops, events, fire_instr)
    st.steps += 1
    raise StepLimitExceeded(
        "step limit {} exceeded".format(st.max_steps), pn, lb, ix
    )


# ----------------------------------------------------------------------
# Plan compiler
# ----------------------------------------------------------------------

_TERMINATORS = (Branch, Jump, Ret)


class _PlanCompiler:
    def __init__(self, proc: Procedure, mode, global_addrs, fingerprint: str, sink):
        self.proc = proc
        self.procname = proc.name
        self.mode = mode
        tokens, self.f_instr, self.f_branch, self.f_call, self.f_ret, self.f_mem = mode
        # The sink that compiles the tokens.  Only the compiler holds
        # it: a part reaches the tape of a run through ``st.tape``, so
        # plans never keep a sink, or a tape, alive.
        self.sink = sink if tokens is not None else None
        self.global_addrs = global_addrs
        self.plan = ExecPlan(proc, mode, fingerprint)
        if self.f_ret:
            self.plan.rtok = sink.resume_token(proc)
        self.slots: Dict[str, int] = {}
        self.missing: Dict[str, PlanBlock] = {}

    def _join(self, first, second):
        """One token for ``first`` then ``second``; either may be None."""
        if first is None:
            return second
        if second is None:
            return first
        return self.sink.join(first, second)

    # -- operand resolution --------------------------------------------

    def _assign_slots(self) -> None:
        slots = self.slots
        for name, _ty in self.proc.params:
            if name not in slots:
                slots[name] = len(slots)
        self.plan.param_slots = [slots[name] for name, _ in self.proc.params]
        for block in self.proc.blocks.values():
            for instr in block.instrs:
                dest = instr.dest
                if dest is not None and dest.name not in slots:
                    slots[dest.name] = len(slots)
                for used in instr.uses():
                    if used.__class__ is Reg and used.name not in slots:
                        slots[used.name] = len(slots)
        plan = self.plan
        plan.nslots = len(slots)
        plan.simple_frame = not plan.is_varargs and plan.param_slots == list(
            range(plan.nparams)
        )
        if plan.simple_frame:
            plan.pad = (_UNSET,) * (plan.nslots - plan.nparams)

    def _rop(self, op):
        """Resolve one operand to ``(slot, const, regname)``; slot is -1
        for constants.  Raises _BadOperand for unresolvable operands."""
        cls = op.__class__
        if cls is Reg:
            return (self.slots[op.name], None, op.name)
        if cls is Imm:
            return (-1, op.value, None)
        if cls is GlobalRef:
            addr = self.global_addrs.get(op.name)
            if addr is None:
                raise _BadOperand(None)
            return (-1, addr, None)
        if cls is FuncRef:
            return (-1, CodePtr(op.name), None)
        raise _BadOperand(None)

    def _spec(self, op):
        """Raising-path operand spec (see _raise_walk)."""
        cls = op.__class__
        if cls is Reg:
            return (0, self.slots[op.name], op.name)
        if cls is Imm:
            return (1, op.value)
        if cls is GlobalRef:
            addr = self.global_addrs.get(op.name)
            if addr is None:
                return (2, op.name)
            return (1, addr)
        if cls is FuncRef:
            return (1, CodePtr(op.name))
        return (4, op)

    def _raising_specs(self, instr):
        cls = instr.__class__
        if cls is BinOp:
            ops = [instr.lhs, instr.rhs]
        elif cls is Store:
            ops = [instr.addr, instr.value]
        elif cls is Ret:
            ops = [instr.value] if instr.value is not None else []
        elif cls is Call:
            ops = list(instr.args)
        elif cls is ICall:
            specs = [self._spec(instr.func), (3,)]
            specs += [self._spec(a) for a in instr.args]
            return specs
        elif cls is Branch:
            ops = [instr.cond]
        else:  # Mov/UnOp/Load/Alloca
            ops = instr.uses()
        return [self._spec(o) for o in ops]

    # -- micro-ops (segment instructions) ------------------------------

    def _compile_micro(self, instr, label, idx):
        """The op of one segment instruction."""
        cls = instr.__class__
        pn = self.procname
        try:
            if cls is BinOp:
                d = self.slots[instr.dest.name]
                ls, lc, ln = self._rop(instr.lhs)
                rs, rc, rn = self._rop(instr.rhs)
                factory = _BINOP_FACTORIES.get(instr.op, _generic_binop)
                return factory(d, ls, lc, ln, rs, rc, rn, instr.op, pn, label, idx)

            if cls is Mov:
                d = self.slots[instr.dest.name]
                s, c, n = self._rop(instr.src)
                if s < 0:

                    def mo(st, regs, _d=d, _c=c):
                        regs[_d] = _c

                else:

                    def mo(st, regs, _d=d, _s=s, _n=n, _pn=pn):
                        v = regs[_s]
                        if v is _UNSET:
                            _unset(_n, _pn)
                        regs[_d] = v

                return mo

            if cls is UnOp:
                d = self.slots[instr.dest.name]
                s, c, n = self._rop(instr.src)
                opname = instr.op

                def mo(st, regs, _d=d, _s=s, _c=c, _op=opname):
                    x = regs[_s] if _s >= 0 else _c
                    if x is _UNSET:
                        _unset(n, pn)
                    try:
                        regs[_d] = eval_unop(_op, x)
                    except (EvalError, TypeError) as ex:
                        raise ExecError(str(ex), pn, label, idx)

                return mo

            if cls is Load:
                d = self.slots[instr.dest.name]
                s, c, n = self._rop(instr.addr)
                if not self.f_mem:

                    def mo(st, regs, _d=d, _s=s, _c=c):
                        a = regs[_s] if _s >= 0 else _c
                        if a is _UNSET:
                            _unset(n, pn)
                        mem = st.memory
                        if type(a) is int and a >= 0:
                            regs[_d] = mem.cells.get(a, 0)
                        else:
                            regs[_d] = mem._load_slow(a)

                else:

                    def mo(st, regs, _d=d, _s=s, _c=c):
                        a = regs[_s] if _s >= 0 else _c
                        if a is _UNSET:
                            _unset(n, pn)
                        mem = st.memory
                        if type(a) is int and a >= 0:
                            v = mem.cells.get(a, 0)
                        else:
                            v = mem._load_slow(a)
                        st.tape.append(a)
                        regs[_d] = v

                return mo

            if cls is Store:
                sa, ca, na = self._rop(instr.addr)
                sv, cv, nv = self._rop(instr.value)
                if not self.f_mem:

                    def mo(st, regs, _sa=sa, _ca=ca, _sv=sv, _cv=cv):
                        a = regs[_sa] if _sa >= 0 else _ca
                        if a is _UNSET:
                            _unset(na, pn)
                        v = regs[_sv] if _sv >= 0 else _cv
                        if v is _UNSET:
                            _unset(nv, pn)
                        mem = st.memory
                        if type(a) is int and a >= 0:
                            mem.cells[a] = v
                        else:
                            mem._store_slow(a, v)

                else:

                    def mo(st, regs, _sa=sa, _ca=ca, _sv=sv, _cv=cv):
                        a = regs[_sa] if _sa >= 0 else _ca
                        if a is _UNSET:
                            _unset(na, pn)
                        v = regs[_sv] if _sv >= 0 else _cv
                        if v is _UNSET:
                            _unset(nv, pn)
                        mem = st.memory
                        if type(a) is int and a >= 0:
                            mem.cells[a] = v
                        else:
                            mem._store_slow(a, v)
                        st.tape.append(~a)

                return mo

            if cls is Alloca:
                d = self.slots[instr.dest.name]
                s, c, n = self._rop(instr.size)
                if s < 0 and type(c) is int and c >= 0:

                    def mo(st, regs, _d=d, _c=c):
                        top = st.stack_top - _c
                        st.stack_top = top
                        regs[_d] = top

                else:

                    def mo(st, regs, _d=d, _s=s, _c=c):
                        size = regs[_s] if _s >= 0 else _c
                        if size is _UNSET:
                            _unset(n, pn)
                        if not isinstance(size, int) or size < 0:
                            raise ExecError(
                                "bad alloca size {!r}".format(size), pn, label, idx
                            )
                        top = st.stack_top - size
                        st.stack_top = top
                        regs[_d] = top

                return mo

            if cls is Probe:

                def mo(st, regs, _cid=instr.counter_id):
                    st.probe_counts[_cid] += 1

                return mo

        except _BadOperand:
            return _raise_walk(self._raising_specs(instr), pn, label, idx)

        # Unknown instruction class: trap exactly like the reference.
        def mo(st, regs, _i=instr):
            raise ExecError("unknown instruction {!r}".format(_i), pn, label, idx)

        return mo

    # -- parts ---------------------------------------------------------

    def _make_segment(self, seg_ops, seg_events):
        raw, events, xops, k, _g, trap = self._seg_bundle(seg_ops, seg_events)
        fire_i = self.f_instr
        if k == 1 and not fire_i:
            op0 = raw[0]

            def part(st, frame, _op=op0, _ops=raw, _ev=events):
                ns = st.steps + 1
                if ns > st.max_steps:
                    return _replay(st, frame, _ops, _ev, False)
                st.steps = ns
                _op(st, frame.regs)

            return part

        def part(st, frame, _x=xops, _k=k, _tr=trap):
            ns = st.steps + _k
            if ns > st.max_steps:
                return _replay(st, frame, raw, events, fire_i)
            st.steps = ns
            regs = frame.regs
            try:
                for op in _x:
                    op(st, regs)
            except ExecError:
                _trapped(st, ns, _tr, op)
                raise

        return part

    def _target(self, label):
        pb = self.plan.blocks.get(label)
        if pb is not None:
            return pb
        pb = self.missing.get(label)
        if pb is None:
            # Lazy trap: a never-taken edge to a missing block must not
            # fail at compile time.  Raised without a step, like the
            # reference loop's top-of-iteration lookup.
            pb = PlanBlock(str(label), None)
            pn = self.procname
            lbl = str(label)

            def part(st, frame):
                raise ExecError("jump to missing block", pn, lbl, 0)

            pb.parts = [part]
            self.missing[label] = pb
        return pb

    def _seg_bundle(self, seg_ops, seg_events, boundary=None):
        """Freeze the pending straight-line segment for fusion into the
        part it ends in: the part of the boundary instruction whose event
        is ``boundary``, or with None a segment that falls off its block.
        Returns ``(raw, events, xops, kk, token, trap)``:

        - ``xops`` is what the fused fast path iterates: the segment's
          ops, with a putter before each group's last instruction, so
          the group's token is on the tape before that instruction
          executes or makes its own data access;
        - ``token`` is the token of the group that ends at the boundary
          instruction, for the boundary part to append (None without
          fetch tokens);
        - ``raw``/``events`` feed the exact replay slow path;
        - ``kk`` is the batched step count, the boundary included;
        - ``trap`` maps each op to what a trap in it leaves to do: the
          number of counted instructions after it, and the fetches of
          its group whose token is not on the tape (see ``_trapped``).
        """
        raw = tuple(seg_ops)
        events = tuple(seg_events)
        fetches = events if boundary is None else events + (boundary,)
        kk = len(fetches)
        ends: Dict[int, Any] = {}  # a group's last fetch -> its token
        firsts: List[int] = []  # each fetch's group's first fetch
        if self.f_instr:
            for count, token in self.sink.fetch_tokens(fetches):
                if count < 1:
                    break
                ends[len(firsts) + count - 1] = token
                firsts.extend([len(firsts)] * count)
            if len(firsts) != kk:
                raise ValueError(
                    "fetch tokens of {!r} do not cover {} fetches".format(
                        self.sink, kk
                    )
                )
        xops: List[Any] = []
        trap = {}
        for i, op in enumerate(raw):
            if i in ends:
                xops.append(_putter(ends[i]))
                late = ()
            else:
                late = fetches[firsts[i] : i + 1] if ends else ()
            xops.append(op)
            trap[op] = (kk - 1 - i, late)
        token = ends.get(kk - 1) if boundary is not None else None
        return raw, events, tuple(xops), kk, token, trap

    def _make_jump(self, instr, label, idx, seg_ops, seg_events):
        target = self._target(instr.target)
        pn = self.procname
        proc = self.proc
        fire_i = self.f_instr
        raw, evs, xops, kk, g, trap = self._seg_bundle(
            seg_ops, seg_events, (proc, label, idx, instr)
        )
        if self.f_branch:
            g = self._join(
                g, self.sink.branch_token(proc, label, idx, "jump", True, instr.target)
            )

        if g is None:
            if not xops:

                def part(st, frame, _t=target, _pn=pn, _lb=label, _ix=idx):
                    ns = st.steps + 1
                    st.steps = ns
                    if ns > st.max_steps:
                        raise StepLimitExceeded(
                            "step limit {} exceeded".format(st.max_steps), _pn, _lb, _ix
                        )
                    return _t

                return part

            def part(st, frame, _t=target, _x=xops, _kk=kk, _tr=trap):
                ns = st.steps + _kk
                if ns > st.max_steps:
                    _seg_overflow(st, frame, raw, evs, False, pn, label, idx)
                st.steps = ns
                regs = frame.regs
                try:
                    for op in _x:
                        op(st, regs)
                except ExecError:
                    _trapped(st, ns, _tr, op)
                    raise
                return _t

            return part

        def part(st, frame, _t=target, _x=xops, _kk=kk, _gj=g, _tr=trap):
            ns = st.steps + _kk
            if ns > st.max_steps:
                _seg_overflow(st, frame, raw, evs, fire_i, pn, label, idx)
            st.steps = ns
            regs = frame.regs
            try:
                for op in _x:
                    op(st, regs)
            except ExecError:
                _trapped(st, ns, _tr, op)
                raise
            tape = st.tape
            tape.append(_gj)
            if len(tape) > TAPE_BOUND:
                _drain(st)
            return _t

        return part

    def _make_branch(self, instr, label, idx, seg_ops, seg_events):
        pn = self.procname
        try:
            cs, cc, cn = self._rop(instr.cond)
        except _BadOperand:
            return self._make_raising_boundary(instr, label, idx, seg_ops, seg_events)
        then_pb = self._target(instr.then_target)
        else_pb = self._target(instr.else_target)
        proc = self.proc
        fire_i = self.f_instr
        raw, evs, xops, kk, g, trap = self._seg_bundle(
            seg_ops, seg_events, (proc, label, idx, instr)
        )
        gt = gn = g
        if self.f_branch:
            sink = self.sink
            gt = self._join(
                g, sink.branch_token(proc, label, idx, "cond", True, instr.then_target)
            )
            gn = self._join(
                g, sink.branch_token(proc, label, idx, "cond", False, instr.else_target)
            )

        if gt is None:
            if not xops:

                def part(st, frame, _cs=cs, _cc=cc, _tp=then_pb, _ep=else_pb):
                    ns = st.steps + 1
                    st.steps = ns
                    if ns > st.max_steps:
                        raise StepLimitExceeded(
                            "step limit {} exceeded".format(st.max_steps), pn, label, idx
                        )
                    c = frame.regs[_cs] if _cs >= 0 else _cc
                    if c is _UNSET:
                        _unset(cn, pn)
                    return _tp if c else _ep

                return part

            def part(
                st, frame, _cs=cs, _cc=cc, _tp=then_pb, _ep=else_pb, _x=xops, _kk=kk,
                _tr=trap,
            ):
                ns = st.steps + _kk
                if ns > st.max_steps:
                    _seg_overflow(st, frame, raw, evs, False, pn, label, idx)
                st.steps = ns
                regs = frame.regs
                try:
                    for op in _x:
                        op(st, regs)
                except ExecError:
                    _trapped(st, ns, _tr, op)
                    raise
                c = regs[_cs] if _cs >= 0 else _cc
                if c is _UNSET:
                    _unset(cn, pn)
                return _tp if c else _ep

            return part

        def part(
            st, frame, _cs=cs, _cc=cc, _tp=then_pb, _ep=else_pb, _x=xops, _kk=kk,
            _g=g, _gt=gt, _gn=gn, _tr=trap,
        ):
            ns = st.steps + _kk
            if ns > st.max_steps:
                _seg_overflow(st, frame, raw, evs, fire_i, pn, label, idx)
            st.steps = ns
            regs = frame.regs
            try:
                for op in _x:
                    op(st, regs)
            except ExecError:
                _trapped(st, ns, _tr, op)
                raise
            c = regs[_cs] if _cs >= 0 else _cc
            if c is _UNSET:
                if _g is not None:
                    st.tape.append(_g)
                _unset(cn, pn)
            tape = st.tape
            if c:
                tape.append(_gt)
                if len(tape) > TAPE_BOUND:
                    _drain(st)
                return _tp
            tape.append(_gn)
            if len(tape) > TAPE_BOUND:
                _drain(st)
            return _ep

        return part

    def _make_ret(self, instr, label, idx, seg_ops, seg_events):
        pn = self.procname
        has_value = instr.value is not None
        if has_value:
            try:
                vs, vc, vn = self._rop(instr.value)
            except _BadOperand:
                return self._make_raising_boundary(instr, label, idx, seg_ops, seg_events)
        else:
            vs, vc, vn = -1, None, None
        fire_i = self.f_instr
        fire_r = self.f_ret
        raw, evs, xops, kk, g, trap = self._seg_bundle(
            seg_ops, seg_events, (self.proc, label, idx, instr)
        )
        gr = self._join(g, self.sink.return_token(pn) if fire_r else None)

        def part(
            st, frame, _vs=vs, _vc=vc, _hv=has_value, _x=xops, _kk=kk, _g=g, _gr=gr,
            _tr=trap,
        ):
            ns = st.steps + _kk
            if ns > st.max_steps:
                _seg_overflow(st, frame, raw, evs, fire_i, pn, label, idx)
            st.steps = ns
            regs = frame.regs
            try:
                for op in _x:
                    op(st, regs)
            except ExecError:
                _trapped(st, ns, _tr, op)
                raise
            if _hv:
                value = regs[_vs] if _vs >= 0 else _vc
                if value is _UNSET:
                    if _g is not None:
                        st.tape.append(_g)
                    _unset(vn, pn)
            else:
                value = None
            frames = st.frames
            frames.pop()
            st.stack_top = frame.saved_stack
            if len(frames) == st.depth0:
                if _g is not None:
                    st.tape.append(_g)
                st.ret_value = value
                return _DONE
            caller = frames[-1]
            if _gr is not None:
                st.tape.append(_gr)
            if fire_r:
                rt = caller.plan.rtok
                if rt is not None:
                    st.tape.append(rt)
            ds = frame.dest_slot
            if ds is not None:
                if value is None:
                    raise ExecError(
                        "void return into a result register from @{}".format(pn)
                    )
                caller.regs[ds] = value
            return _RETURN

        return part

    def _make_call(self, instr, label, idx, seg_ops, seg_events):
        pn = self.procname
        proc = self.proc
        is_icall = instr.__class__ is ICall
        try:
            if is_icall:
                fs, fc, fn = self._rop(instr.func)
            else:
                fs, fc, fn = -1, None, None
            argspec = tuple(self._rop(a) for a in instr.args)
        except _BadOperand:
            return self._make_raising_boundary(instr, label, idx, seg_ops, seg_events)
        callee_static = None if is_icall else instr.callee
        dest_slot = self.slots[instr.dest.name] if instr.dest is not None else None
        sitekey = (proc.module, instr.site_id)
        fire_i = self.f_instr
        raw, evs, xops, kk, g, trap = self._seg_bundle(
            seg_ops, seg_events, (proc, label, idx, instr)
        )
        gu = gb = g
        if self.f_call:
            sink = self.sink
            n_args = len(argspec)
            kind = "indirect" if is_icall else "direct"
            gu = self._join(g, sink.call_token(proc, callee_static, kind, n_args))
            gb = self._join(g, sink.call_token(proc, callee_static, "builtin", n_args))
        # An indirect call's token is followed by its callee's name.
        name = is_icall and self.f_call

        def part(
            st, frame, _fs=fs, _fc=fc, _as=argspec, _ds=dest_slot, _x=xops, _kk=kk,
            _g=g, _gu=gu, _gb=gb, _tr=trap,
        ):
            ns = st.steps + _kk
            if ns > st.max_steps:
                _seg_overflow(st, frame, raw, evs, fire_i, pn, label, idx)
            st.steps = ns
            regs = frame.regs
            try:
                for op in _x:
                    op(st, regs)
            except ExecError:
                _trapped(st, ns, _tr, op)
                raise
            try:
                if _fs >= 0 or _fc is not None:  # indirect call
                    f = regs[_fs] if _fs >= 0 else _fc
                    if f is _UNSET:
                        _unset(fn, pn)
                    if not isinstance(f, CodePtr):
                        raise ExecError(
                            "indirect call through non-code value {!r}".format(f),
                            pn,
                            label,
                            idx,
                        )
                    callee_name = f.name
                else:
                    callee_name = callee_static
                args = [regs[s] if s >= 0 else c for s, c, _n in _as]
                if _UNSET in args:
                    for s, c, n in _as:
                        if s >= 0 and regs[s] is _UNSET:
                            _unset(n, pn)
            except ExecError:
                if _g is not None:
                    st.tape.append(_g)
                raise
            st.call_count += 1
            if st.collect_site:
                st.site_counts[sitekey] += 1

            plan = st.link.get(callee_name, _MISS)
            if plan is _MISS:
                plan = st.resolve(callee_name)
            if plan is not None:
                if _gu is not None:
                    tape = st.tape
                    tape.append(_gu)
                    if name:
                        tape.append(callee_name)
                    if len(tape) > TAPE_BOUND:
                        _drain(st)
                if plan.simple_frame and len(args) == plan.nparams:
                    # Inlined fast push: the argument list we just built
                    # becomes the register file (params are the slot
                    # prefix), padded with _UNSET filler.
                    frames = st.frames
                    if len(frames) >= _STACK_LIMIT:
                        raise ExecError(
                            "call stack overflow in @{}".format(plan.proc.name)
                        )
                    nf = _FastFrame()
                    nf.plan = plan
                    nf.dest_slot = _ds
                    nf.saved_stack = st.stack_top
                    nf.block = plan.entry
                    nf.pi = 0
                    nf.varargs = _NO_VARARGS
                    args.extend(plan.pad)
                    nf.regs = args
                    frames.append(nf)
                else:
                    st.push(plan, args, _ds)
                return _ENTER
            builtin = st.builtins.get(callee_name)
            if builtin is None:
                if _g is not None:
                    st.tape.append(_g)
                raise ExecError(
                    "call to unresolved external @{}".format(callee_name),
                    pn,
                    label,
                    idx,
                )
            if _gb is not None:
                tape = st.tape
                tape.append(_gb)
                if name:
                    tape.append(callee_name)
                if len(tape) > TAPE_BOUND:
                    _drain(st)
            r = builtin(args)
            if _ds is not None:
                regs[_ds] = r
            return None

        return part

    def _make_raising_boundary(self, instr, label, idx, seg_ops, seg_events):
        """A boundary instruction with an unresolvable operand: run the
        fused segment, count the boundary step, append the boundary's
        group token, then trap via the spec walk."""
        pn = self.procname
        fire_i = self.f_instr
        walk = _raise_walk(self._raising_specs(instr), pn, label, idx)
        raw, evs, xops, kk, g, trap = self._seg_bundle(
            seg_ops, seg_events, (self.proc, label, idx, instr)
        )

        def part(st, frame, _x=xops, _kk=kk, _g=g, _tr=trap):
            ns = st.steps + _kk
            if ns > st.max_steps:
                _seg_overflow(st, frame, raw, evs, fire_i, pn, label, idx)
            st.steps = ns
            regs = frame.regs
            try:
                for op in _x:
                    op(st, regs)
            except ExecError:
                _trapped(st, ns, _tr, op)
                raise
            if _g is not None:
                st.tape.append(_g)
            walk(st, regs)

        return part

    def _make_fell_off(self, label, n):
        pn = self.procname

        def part(st, frame):
            raise ExecError("fell off the end of block", pn, label, n)

        return part

    # -- driver --------------------------------------------------------

    def compile(self) -> ExecPlan:
        proc = self.proc
        plan = self.plan
        self._assign_slots()
        for label in proc.blocks:
            plan.blocks[label] = PlanBlock(label, (proc.name, label))
        for label, block in proc.blocks.items():
            pb = plan.blocks[label]
            parts: List[Any] = []
            seg_ops: List[Any] = []
            seg_events: List[Any] = []
            terminated = False
            for idx, instr in enumerate(block.instrs):
                cls = instr.__class__
                # Boundary instructions (calls and terminators) fuse the
                # straight-line segment that precedes them into their
                # own part: one closure, one batched step check.
                if cls is Call or cls is ICall:
                    parts.append(self._make_call(instr, label, idx, seg_ops, seg_events))
                    seg_ops, seg_events = [], []
                elif cls is Jump:
                    parts.append(self._make_jump(instr, label, idx, seg_ops, seg_events))
                    terminated = True
                    break
                elif cls is Branch:
                    parts.append(
                        self._make_branch(instr, label, idx, seg_ops, seg_events)
                    )
                    terminated = True
                    break
                elif cls is Ret:
                    parts.append(self._make_ret(instr, label, idx, seg_ops, seg_events))
                    terminated = True
                    break
                else:
                    seg_ops.append(self._compile_micro(instr, label, idx))
                    seg_events.append((proc, label, idx, instr))
            if not terminated:
                if seg_ops:
                    parts.append(self._make_segment(seg_ops, seg_events))
                parts.append(self._make_fell_off(label, len(block.instrs)))
            pb.parts = parts
        if proc.entry is not None and proc.entry in plan.blocks:
            plan.entry = plan.blocks[proc.entry]
        else:
            plan.entry = self._target(proc.entry)
        return plan


# ----------------------------------------------------------------------
# Executor
# ----------------------------------------------------------------------


class _FastFrame:
    """Activation record of the fast engine.  Lives on the interpreter's
    shared ``_frames`` list so the varargs builtins see it."""

    __slots__ = ("plan", "regs", "dest_slot", "saved_stack", "varargs", "block", "pi")


class _ExecState:
    """Per-run mutable state threaded through every compiled closure."""

    __slots__ = (
        "interp",
        "cache",
        "mode",
        "global_addrs",
        "frames",
        "memory",
        "sink",
        "tape",
        "builtins",
        "max_steps",
        "steps",
        "stack_top",
        "call_count",
        "probe_counts",
        "site_counts",
        "collect_site",
        "block_counts",
        "collect_block",
        "link",
        "depth0",
        "ret_value",
    )

    def __init__(self, interp, cache: PlanCache, mode) -> None:
        self.interp = interp
        self.cache = cache
        self.mode = mode
        self.global_addrs = interp._global_addrs
        self.frames = interp._frames
        self.memory = interp.memory
        self.sink = interp.sink
        # The run's tape: the tokens of events the sink has not been
        # given yet (see repro.interp.events, "Tokens and the tape").
        self.tape: List[Any] = []
        self.builtins = interp._builtins
        self.max_steps = interp.max_steps
        self.steps = interp.steps
        self.stack_top = interp._stack_top
        self.call_count = interp.call_count
        self.probe_counts = interp.probe_counts
        self.site_counts = interp.site_counts
        self.collect_site = interp.collect_site_counts
        self.block_counts = interp.block_counts
        self.collect_block = interp.collect_block_counts
        self.link: Dict[str, Optional[ExecPlan]] = {}
        self.depth0 = len(self.frames)
        self.ret_value = None

    def resolve(self, name: str) -> Optional[ExecPlan]:
        """Resolve a callee name to a (validated) plan, once per run."""
        proc = self.interp._procs.get(name)
        if proc is None:
            plan = None
        else:
            plan = self.cache.get_plan(proc, self.mode, self.global_addrs, self.sink)
        self.link[name] = plan
        return plan

    def push(self, plan: ExecPlan, args: List[Any], dest_slot: Optional[int]) -> None:
        frames = self.frames
        if len(frames) >= _STACK_LIMIT:
            raise ExecError("call stack overflow in @{}".format(plan.proc.name))
        frame = _FastFrame()
        frame.plan = plan
        frame.dest_slot = dest_slot
        frame.saved_stack = self.stack_top
        frame.block = plan.entry
        frame.pi = 0
        nfixed = plan.nparams
        if plan.is_varargs:
            if len(args) < nfixed:
                raise ExecError("too few args for varargs @{}".format(plan.proc.name))
            frame.varargs = args[nfixed:]
            args = args[:nfixed]
        else:
            if len(args) != nfixed:
                raise ExecError(
                    "arity mismatch calling @{}: {} args for {} params".format(
                        plan.proc.name, len(args), nfixed
                    )
                )
            frame.varargs = []
        regs = [_UNSET] * plan.nslots
        param_slots = plan.param_slots
        for i, value in enumerate(args):
            regs[param_slots[i]] = value
        frame.regs = regs
        frames.append(frame)

    def run(self):
        """The threaded-dispatch driver: execute parts until the root
        frame returns.  Returns the root's return value."""
        frames = self.frames
        frame = frames[-1]
        block = frame.block
        collect_block = self.collect_block
        block_counts = self.block_counts
        if collect_block and block.key is not None:
            block_counts[block.key] += 1
        parts = block.parts
        pi = 0
        while True:
            r = parts[pi](self, frame)
            if r is None:
                pi += 1
            elif r.__class__ is PlanBlock:
                block = r
                parts = block.parts
                pi = 0
                if collect_block and block.key is not None:
                    block_counts[block.key] += 1
            elif r is _ENTER:
                frame.block = block
                frame.pi = pi + 1
                frame = frames[-1]
                block = frame.block
                parts = block.parts
                pi = 0
                if collect_block and block.key is not None:
                    block_counts[block.key] += 1
            elif r is _RETURN:
                frame = frames[-1]
                block = frame.block
                parts = block.parts
                pi = frame.pi
            else:  # _DONE
                return self.ret_value


def execute(interp, proc: Procedure, args: List[Any]):
    """Entry point used by ``Interpreter.run`` for ``engine="fast"``.

    Shares the interpreter's memory, output, counters, builtins, and
    frame list, so builtins (including ``exit`` and the varargs pair)
    behave identically to the reference engine; run totals are synced
    back, and the tape is drained into the sink, even when the run
    unwinds with ``_Exit`` or a trap.
    """
    program = interp.program
    cache = getattr(program, "_plan_cache", None)
    if cache is None:
        cache = PlanCache()
        program._plan_cache = cache
    cache.check_globals(program)
    mode = sink_mode(interp.sink)
    st = _ExecState(interp, cache, mode)
    compiled0 = cache.plans_compiled
    hits0 = cache.cache_hits
    exit_code = 0
    ret = None
    try:
        try:
            plan = st.resolve(proc.name)
            st.push(plan, args, None)
            ret = st.run()
        finally:
            interp.steps = st.steps
            interp.call_count = st.call_count
            interp._stack_top = st.stack_top
            interp.plans_compiled += cache.plans_compiled - compiled0
            interp.plan_cache_hits += cache.cache_hits - hits0
            if st.tape:
                _drain(st)
        if isinstance(ret, int):
            exit_code = wrap_int(ret)
    except _Exit as ex:
        exit_code = wrap_int(ex.code)
    return Result(
        exit_code,
        interp.output,
        interp.steps,
        interp.probe_counts,
        interp.site_counts,
        interp.block_counts,
        interp.call_count,
    )
