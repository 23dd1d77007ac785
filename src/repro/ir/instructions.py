"""Instruction set of the ucode-like IR.

Every instruction is a small mutable object with an optional destination
register and a list of operand *uses*.  Transform passes traverse and
rewrite operands through :meth:`Instr.map_operands`, and block-level
transforms retarget control flow through :meth:`Instr.retarget`; keeping
those two entry points uniform is what makes the inliner/cloner body
transplant (Section 2.3/2.4) a single generic renaming walk.

Call sites carry a ``site_id`` that is unique within their module as
produced by the front end.  The profile database keys call-site counts
by ``(module, site_id)``; inlining and cloning assign fresh ids to the
call sites they copy, recording the original id as ``origin`` so reports
can attribute transformed sites to source sites.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from .values import FuncRef, Imm, Operand, Reg

OperandMap = Callable[[Operand], Operand]


class Instr:
    """Base class for all IR instructions."""

    __slots__ = ()

    dest: Optional[Reg] = None
    is_terminator = False
    # Every slot of the class and its bases, for :meth:`copy`.
    _all_slots: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._all_slots = tuple(
            slot
            for klass in cls.__mro__
            for slot in klass.__dict__.get("__slots__", ())
        )

    def uses(self) -> List[Operand]:
        """Operands read by this instruction (no labels)."""
        return []

    def map_operands(self, fn: OperandMap) -> None:
        """Rewrite every used operand in place through ``fn``."""

    def targets(self) -> List[str]:
        """Labels of successor blocks (terminators only)."""
        return []

    def retarget(self, mapping: Dict[str, str]) -> None:
        """Rewrite successor labels through ``mapping`` (missing = keep)."""

    def copy(self) -> "Instr":
        """A copy suitable for transplanting into another body.

        Operand values (``Reg``/``Imm``/``FuncRef``/``GlobalRef``) are
        frozen dataclasses, so only the instruction object itself and
        its operand *lists* need duplicating; ``map_operands`` replaces
        references, never mutates operands.  This sits on the hot path
        of inlining, cloning, and every guarded-pass snapshot — a full
        ``copy.deepcopy`` here dominated compile time.
        """
        cls = self.__class__
        new = cls.__new__(cls)
        for slot in cls._all_slots:
            value = getattr(self, slot)
            if type(value) is list:
                value = list(value)
            setattr(new, slot, value)
        return new

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<{}>".format(self)


class Mov(Instr):
    """``dest = src`` — register copy or constant materialization."""

    __slots__ = ("dest", "src")

    def __init__(self, dest: Reg, src: Operand):
        self.dest = dest
        self.src = src

    def uses(self) -> List[Operand]:
        return [self.src]

    def map_operands(self, fn: OperandMap) -> None:
        self.src = fn(self.src)

    def __str__(self) -> str:
        return "{} = mov {}".format(self.dest, self.src)


class UnOp(Instr):
    """``dest = op src`` for op in neg/not/lnot/itof/ftoi."""

    __slots__ = ("dest", "op", "src")

    def __init__(self, dest: Reg, op: str, src: Operand):
        self.dest = dest
        self.op = op
        self.src = src

    def uses(self) -> List[Operand]:
        return [self.src]

    def map_operands(self, fn: OperandMap) -> None:
        self.src = fn(self.src)

    def __str__(self) -> str:
        return "{} = {} {}".format(self.dest, self.op, self.src)


class BinOp(Instr):
    """``dest = op lhs, rhs`` for the arithmetic/logic/compare opcodes."""

    __slots__ = ("dest", "op", "lhs", "rhs")

    def __init__(self, dest: Reg, op: str, lhs: Operand, rhs: Operand):
        self.dest = dest
        self.op = op
        self.lhs = lhs
        self.rhs = rhs

    def uses(self) -> List[Operand]:
        return [self.lhs, self.rhs]

    def map_operands(self, fn: OperandMap) -> None:
        self.lhs = fn(self.lhs)
        self.rhs = fn(self.rhs)

    def __str__(self) -> str:
        return "{} = {} {}, {}".format(self.dest, self.op, self.lhs, self.rhs)


class Load(Instr):
    """``dest = load [addr]`` — read one memory word."""

    __slots__ = ("dest", "addr")

    def __init__(self, dest: Reg, addr: Operand):
        self.dest = dest
        self.addr = addr

    def uses(self) -> List[Operand]:
        return [self.addr]

    def map_operands(self, fn: OperandMap) -> None:
        self.addr = fn(self.addr)

    def __str__(self) -> str:
        return "{} = load [{}]".format(self.dest, self.addr)


class Store(Instr):
    """``store [addr], value`` — write one memory word."""

    __slots__ = ("addr", "value")

    dest = None

    def __init__(self, addr: Operand, value: Operand):
        self.addr = addr
        self.value = value

    def uses(self) -> List[Operand]:
        return [self.addr, self.value]

    def map_operands(self, fn: OperandMap) -> None:
        self.addr = fn(self.addr)
        self.value = fn(self.value)

    def __str__(self) -> str:
        return "store [{}], {}".format(self.addr, self.value)


class Alloca(Instr):
    """``dest = alloca size`` — reserve ``size`` words of stack space.

    A non-immediate ``size`` is a *dynamic* alloca; procedures containing
    one are flagged, because the paper lists dynamic stack allocation as
    a pragmatic restriction on inlining (the callee's frame lifetime
    would change under naive inlining).
    """

    __slots__ = ("dest", "size")

    def __init__(self, dest: Reg, size: Operand):
        self.dest = dest
        self.size = size

    @property
    def is_dynamic(self) -> bool:
        return not isinstance(self.size, Imm)

    def uses(self) -> List[Operand]:
        return [self.size]

    def map_operands(self, fn: OperandMap) -> None:
        self.size = fn(self.size)

    def __str__(self) -> str:
        return "{} = alloca {}".format(self.dest, self.size)


class Call(Instr):
    """``dest = call @callee(args...)`` — direct call by IR symbol name."""

    __slots__ = ("dest", "callee", "args", "site_id", "origin")

    def __init__(
        self,
        dest: Optional[Reg],
        callee: str,
        args: List[Operand],
        site_id: int = -1,
        origin: int = -1,
    ):
        self.dest = dest
        self.callee = callee
        self.args = list(args)
        self.site_id = site_id
        self.origin = origin if origin >= 0 else site_id

    def uses(self) -> List[Operand]:
        return list(self.args)

    def map_operands(self, fn: OperandMap) -> None:
        self.args = [fn(a) for a in self.args]

    def __str__(self) -> str:
        args = ", ".join(str(a) for a in self.args)
        head = "{} = ".format(self.dest) if self.dest is not None else ""
        return "{}call @{}({}) #{}".format(head, self.callee, args, self.site_id)


class ICall(Instr):
    """``dest = icall func(args...)`` — call through a code pointer."""

    __slots__ = ("dest", "func", "args", "site_id", "origin")

    def __init__(
        self,
        dest: Optional[Reg],
        func: Operand,
        args: List[Operand],
        site_id: int = -1,
        origin: int = -1,
    ):
        self.dest = dest
        self.func = func
        self.args = list(args)
        self.site_id = site_id
        self.origin = origin if origin >= 0 else site_id

    def uses(self) -> List[Operand]:
        return [self.func] + list(self.args)

    def map_operands(self, fn: OperandMap) -> None:
        self.func = fn(self.func)
        self.args = [fn(a) for a in self.args]

    def to_direct(self) -> "Call":
        """Devirtualize: requires ``func`` to be a constant ``FuncRef``."""
        if not isinstance(self.func, FuncRef):
            raise ValueError("icall target is not a known FuncRef")
        return Call(self.dest, self.func.name, self.args, self.site_id, self.origin)

    def __str__(self) -> str:
        args = ", ".join(str(a) for a in self.args)
        head = "{} = ".format(self.dest) if self.dest is not None else ""
        return "{}icall {}({}) #{}".format(head, self.func, args, self.site_id)


class Jump(Instr):
    """Unconditional branch to ``target``."""

    __slots__ = ("target",)

    dest = None
    is_terminator = True

    def __init__(self, target: str):
        self.target = target

    def targets(self) -> List[str]:
        return [self.target]

    def retarget(self, mapping: Dict[str, str]) -> None:
        self.target = mapping.get(self.target, self.target)

    def __str__(self) -> str:
        return "jmp {}".format(self.target)


class Branch(Instr):
    """Conditional branch: nonzero ``cond`` goes to ``then_target``."""

    __slots__ = ("cond", "then_target", "else_target")

    dest = None
    is_terminator = True

    def __init__(self, cond: Operand, then_target: str, else_target: str):
        self.cond = cond
        self.then_target = then_target
        self.else_target = else_target

    def uses(self) -> List[Operand]:
        return [self.cond]

    def map_operands(self, fn: OperandMap) -> None:
        self.cond = fn(self.cond)

    def targets(self) -> List[str]:
        return [self.then_target, self.else_target]

    def retarget(self, mapping: Dict[str, str]) -> None:
        self.then_target = mapping.get(self.then_target, self.then_target)
        self.else_target = mapping.get(self.else_target, self.else_target)

    def __str__(self) -> str:
        return "br {}, {}, {}".format(self.cond, self.then_target, self.else_target)


class Ret(Instr):
    """Return from the procedure, optionally with a value."""

    __slots__ = ("value",)

    dest = None
    is_terminator = True

    def __init__(self, value: Optional[Operand] = None):
        self.value = value

    def uses(self) -> List[Operand]:
        return [self.value] if self.value is not None else []

    def map_operands(self, fn: OperandMap) -> None:
        if self.value is not None:
            self.value = fn(self.value)

    def __str__(self) -> str:
        return "ret" if self.value is None else "ret {}".format(self.value)


class Probe(Instr):
    """Profiling probe: bump counter ``counter_id`` in the profile buffer.

    Inserted by the instrumentation pass (one per basic block); the
    interpreter executes it by incrementing a cell in the run's profile
    buffer.  Probes model the paper's instrumenting compile, including
    its run-time overhead.
    """

    __slots__ = ("counter_id",)

    dest = None

    def __init__(self, counter_id: int):
        self.counter_id = counter_id

    def __str__(self) -> str:
        return "probe {}".format(self.counter_id)


CALL_INSTRS = (Call, ICall)
