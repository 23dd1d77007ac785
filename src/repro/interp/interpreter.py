"""A whole-program IR interpreter (the reproduction's "workstation").

Runs a :class:`~repro.ir.Program` on an input vector, producing an
output vector, an exit code, and dynamic counts.  It is the substrate
for three paper workflows:

- the *training run* of the PGO pipeline (executing instrumented code
  and harvesting ``probe`` counters),
- the *run time* measurements (step counts, or cycle counts when an
  event sink feeds the PA8000 machine model),
- the semantics oracle for the property-test suite (any HLO or
  optimizer transform must leave ``Result.behavior()`` unchanged).

The interpreter maintains an explicit frame stack, so deeply recursive
workloads do not consume Python stack.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

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
from ..ir.ops import EvalError, eval_binop, eval_unop, wrap_int
from ..ir.procedure import ATTR_VARARGS, Procedure
from ..ir.program import Program
from ..ir.values import FuncRef, GlobalRef, Imm, Operand, Reg
from .errors import ExecError, StepLimitExceeded
from .events import EventSink
from .memory import GLOBAL_BASE, STACK_BASE, CodePtr, Memory, Word

DEFAULT_MAX_STEPS = 50_000_000
STACK_LIMIT_FRAMES = 8_000

# Execution engines.  "fast" is the pre-decoded threaded-dispatch engine
# (repro.interp.engine) and the only optimized one; "reference" is the
# direct-over-IR loop below, kept as the semantics oracle the fast
# engine is differentially tested against.
ENGINES = ("fast", "reference")
DEFAULT_ENGINE = "fast"


class _Exit(Exception):
    """Internal: raised by the ``exit`` builtin."""

    def __init__(self, code: int):
        self.code = code
        super().__init__(code)


class Result:
    """Outcome of one program run."""

    __slots__ = (
        "exit_code",
        "output",
        "steps",
        "probe_counts",
        "site_counts",
        "block_counts",
        "call_count",
    )

    def __init__(
        self,
        exit_code: int,
        output: List[Union[int, float]],
        steps: int,
        probe_counts: Dict[int, int],
        site_counts: Dict[Tuple[str, int], int],
        block_counts: Dict[Tuple[str, str], int],
        call_count: int,
    ):
        self.exit_code = exit_code
        self.output = output
        self.steps = steps
        self.probe_counts = probe_counts
        self.site_counts = site_counts
        self.block_counts = block_counts
        self.call_count = call_count

    def behavior(self) -> Tuple[int, Tuple[Union[int, float], ...]]:
        """The externally observable behaviour: exit code and output."""
        return (self.exit_code, tuple(self.output))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<Result exit={} |output|={} steps={}>".format(
            self.exit_code, len(self.output), self.steps
        )


class _Frame:
    __slots__ = ("proc", "label", "index", "regs", "dest", "saved_stack", "varargs")

    def __init__(self, proc: Procedure):
        self.proc = proc
        self.label = proc.entry
        self.index = 0
        self.regs: Dict[str, Word] = {}
        self.dest: Optional[Reg] = None  # caller register awaiting our return value
        self.saved_stack = 0
        self.varargs: List[Word] = []


class Interpreter:
    """Executes a program; see module docstring for the three roles."""

    def __init__(
        self,
        program: Program,
        inputs: Sequence[Union[int, float]] = (),
        sink: Optional[EventSink] = None,
        max_steps: int = DEFAULT_MAX_STEPS,
        collect_site_counts: bool = False,
        collect_block_counts: bool = False,
        engine: str = DEFAULT_ENGINE,
    ):
        if engine not in ENGINES:
            raise ValueError(
                "unknown engine {!r}; expected one of {}".format(engine, ENGINES)
            )
        self.program = program
        self.inputs = list(inputs)
        self.sink = sink
        self.max_steps = max_steps
        self.collect_site_counts = collect_site_counts
        self.collect_block_counts = collect_block_counts
        self.engine = engine

        self.memory = Memory()
        self.output: List[Union[int, float]] = []
        self.steps = 0
        self.call_count = 0
        self.probe_counts: Dict[int, int] = Counter()
        self.site_counts: Dict[Tuple[str, int], int] = Counter()
        self.block_counts: Dict[Tuple[str, str], int] = Counter()
        # Plan-cache accounting for the fast engine (obs `interp.*` metrics).
        self.plans_compiled = 0
        self.plan_cache_hits = 0

        # Sink capability negotiation: both engines honour the sink's
        # declared needs_* flags, so a sink that does not consume a
        # callback never pays for it (and every engine delivers the same
        # stream for any given sink, which the differential harness
        # checks).
        if sink is None:
            self._sink_instr = self._sink_branch = False
            self._sink_call = self._sink_return = self._sink_mem = False
        else:
            self._sink_instr = sink.needs_instr
            self._sink_branch = sink.needs_branch
            self._sink_call = sink.needs_call
            self._sink_return = sink.needs_return
            self._sink_mem = sink.needs_mem

        self._procs: Dict[str, Procedure] = {p.name: p for p in program.all_procs()}
        self._global_addrs: Dict[str, int] = {}
        self._stack_top = STACK_BASE
        self._frames: List[_Frame] = []
        self._layout_globals()
        # The runtime library, bound to this interpreter while it runs
        # (see run).
        self._builtins: Optional[Dict[str, Callable[[List[Word]], Word]]] = None

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def _layout_globals(self) -> None:
        addr = GLOBAL_BASE
        for gvar in self.program.all_globals():
            self._global_addrs[gvar.name] = addr
            for offset, word in enumerate(gvar.init):
                if word != 0:
                    self.memory.store(addr + offset, word)
            addr += gvar.size

    def global_addr(self, name: str) -> int:
        try:
            return self._global_addrs[name]
        except KeyError:
            raise ExecError("unknown global ${}".format(name))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, entry: str = "main", args: Sequence[Word] = ()) -> Result:
        """Execute from ``entry`` until it returns or ``exit`` is called."""
        proc = self._procs.get(entry)
        if proc is None:
            raise ExecError("entry procedure @{} not found".format(entry))
        # Bound methods of this interpreter: kept past the run, the table
        # would be a reference cycle, and the interpreter, its program
        # and its sink would outlive their last reference until the
        # cyclic collector ran.
        self._builtins = {
            "print_int": self._bi_print_int,
            "print_flt": self._bi_print_flt,
            "input": self._bi_input,
            "input_len": self._bi_input_len,
            "exit": self._bi_exit,
            "abs": self._bi_abs,
            "sbrk": self._bi_sbrk,
            "va_arg": self._bi_va_arg,
            "va_count": self._bi_va_count,
        }
        try:
            if self.engine == "fast":
                from .engine import execute

                return execute(self, proc, list(args))
            return self._run_reference(proc, args)
        finally:
            self._builtins = None
            if self.sink is not None:
                self.sink.on_run_end()

    def _run_reference(self, proc: Procedure, args: Sequence[Word]) -> Result:
        frame = self._push_frame(proc, list(args), dest=None)
        exit_code = 0
        try:
            ret = self._loop(frame)
            if isinstance(ret, int):
                exit_code = wrap_int(ret)
        except _Exit as ex:
            exit_code = wrap_int(ex.code)
        return Result(
            exit_code,
            self.output,
            self.steps,
            self.probe_counts,
            self.site_counts,
            self.block_counts,
            self.call_count,
        )

    def _push_frame(self, proc: Procedure, args: List[Word], dest: Optional[Reg]) -> _Frame:
        if len(self._frames) >= STACK_LIMIT_FRAMES:
            raise ExecError("call stack overflow in @{}".format(proc.name))
        frame = _Frame(proc)
        frame.dest = dest
        frame.saved_stack = self._stack_top

        fixed = len(proc.params)
        if ATTR_VARARGS in proc.attrs:
            if len(args) < fixed:
                raise ExecError("too few args for varargs @{}".format(proc.name))
            frame.varargs = args[fixed:]
            args = args[:fixed]
        elif len(args) != fixed:
            raise ExecError(
                "arity mismatch calling @{}: {} args for {} params".format(
                    proc.name, len(args), fixed
                )
            )
        for (name, _ty), value in zip(proc.params, args):
            frame.regs[name] = value
        self._frames.append(frame)
        return frame

    def _pop_frame(self) -> _Frame:
        frame = self._frames.pop()
        self._stack_top = frame.saved_stack
        return frame

    def _loop(self, root: _Frame) -> Optional[Word]:
        """Run until ``root`` returns; returns its return value."""
        frames = self._frames
        sink = self.sink
        depth0 = len(frames) - 1

        # Hot-path locals: every name resolved per instruction in the
        # inner loop is bound once here.  ``steps`` is kept local and
        # written back in the ``finally`` so _Exit / trap unwinds still
        # leave ``self.steps`` exact.
        max_steps = self.max_steps
        memory = self.memory
        eval_ = self._eval
        probe_counts = self.probe_counts
        block_counts = self.block_counts
        collect_block = self.collect_block_counts
        on_instr = sink.on_instr if self._sink_instr else None
        on_branch = sink.on_branch if self._sink_branch else None
        on_mem = sink.on_mem if self._sink_mem else None
        steps = self.steps

        try:
            while True:
                frame = frames[-1]
                proc = frame.proc
                block = proc.blocks.get(frame.label)
                if block is None:
                    raise ExecError(
                        "jump to missing block", proc.name, str(frame.label), 0
                    )
                if frame.index == 0 and collect_block:
                    block_counts[(proc.name, frame.label)] += 1

                instrs = block.instrs
                regs = frame.regs
                n_instrs = len(instrs)
                while frame.index < n_instrs:
                    idx = frame.index
                    instr = instrs[idx]
                    steps += 1
                    if steps > max_steps:
                        raise StepLimitExceeded(
                            "step limit {} exceeded".format(max_steps),
                            proc.name,
                            block.label,
                            idx,
                        )
                    if on_instr is not None:
                        on_instr(proc, block.label, idx, instr)

                    cls = instr.__class__
                    if cls is BinOp:
                        regs[instr.dest.name] = self._binop(frame, instr, proc, block, idx)
                        frame.index = idx + 1
                    elif cls is Mov:
                        regs[instr.dest.name] = eval_(frame, instr.src)
                        frame.index = idx + 1
                    elif cls is UnOp:
                        src = eval_(frame, instr.src)
                        try:
                            regs[instr.dest.name] = eval_unop(instr.op, src)
                        except (EvalError, TypeError) as ex:
                            raise ExecError(str(ex), proc.name, block.label, idx)
                        frame.index = idx + 1
                    elif cls is Load:
                        addr = eval_(frame, instr.addr)
                        value = memory.load(addr)
                        if on_mem is not None:
                            on_mem(addr, False)
                        regs[instr.dest.name] = value
                        frame.index = idx + 1
                    elif cls is Store:
                        addr = eval_(frame, instr.addr)
                        value = eval_(frame, instr.value)
                        memory.store(addr, value)
                        if on_mem is not None:
                            on_mem(addr, True)
                        frame.index = idx + 1
                    elif cls is Branch:
                        cond = eval_(frame, instr.cond)
                        taken = bool(cond)
                        target = instr.then_target if taken else instr.else_target
                        if on_branch is not None:
                            on_branch(proc, block.label, idx, "cond", taken, target)
                        frame.label = target
                        frame.index = 0
                        break
                    elif cls is Jump:
                        if on_branch is not None:
                            on_branch(proc, block.label, idx, "jump", True, instr.target)
                        frame.label = instr.target
                        frame.index = 0
                        break
                    elif cls is Ret:
                        value = eval_(frame, instr.value) if instr.value is not None else None
                        done = self._do_return(frame, value)
                        if done:
                            return value
                        break
                    elif cls is Call or cls is ICall:
                        entered = self._do_call(frame, proc, block, idx, instr)
                        frame.index = idx + 1
                        if entered:
                            break
                    elif cls is Alloca:
                        size = eval_(frame, instr.size)
                        if not isinstance(size, int) or size < 0:
                            raise ExecError(
                                "bad alloca size {!r}".format(size), proc.name, block.label, idx
                            )
                        self._stack_top -= size
                        regs[instr.dest.name] = self._stack_top
                        frame.index = idx + 1
                    elif cls is Probe:
                        probe_counts[instr.counter_id] += 1
                        frame.index = idx + 1
                    else:  # pragma: no cover - unreachable with a verified program
                        raise ExecError(
                            "unknown instruction {!r}".format(instr), proc.name, block.label, idx
                        )
                else:
                    raise ExecError(
                        "fell off the end of block", proc.name, block.label, len(instrs)
                    )

                if len(frames) == depth0:
                    raise ExecError("internal: frame stack underflow")  # pragma: no cover
        finally:
            self.steps = steps

    # ------------------------------------------------------------------
    # Instruction helpers
    # ------------------------------------------------------------------

    def _binop(self, frame: _Frame, instr: BinOp, proc, block, idx) -> Word:
        lhs = self._eval(frame, instr.lhs)
        rhs = self._eval(frame, instr.rhs)
        if isinstance(lhs, CodePtr) or isinstance(rhs, CodePtr):
            if instr.op == "eq":
                return 1 if lhs == rhs else 0
            if instr.op == "ne":
                return 0 if lhs == rhs else 1
            raise ExecError(
                "arithmetic on code pointer", proc.name, block.label, idx
            )
        try:
            return eval_binop(instr.op, lhs, rhs)
        except (EvalError, TypeError) as ex:
            raise ExecError(str(ex), proc.name, block.label, idx)

    def _eval(self, frame: _Frame, op: Operand) -> Word:
        cls = op.__class__
        if cls is Reg:
            try:
                return frame.regs[op.name]
            except KeyError:
                raise ExecError(
                    "read of unset register %{} in @{}".format(op.name, frame.proc.name)
                )
        if cls is Imm:
            return op.value
        if cls is GlobalRef:
            return self.global_addr(op.name)
        if cls is FuncRef:
            return CodePtr(op.name)
        raise ExecError("unknown operand {!r}".format(op))  # pragma: no cover

    def _do_call(self, frame: _Frame, proc, block, idx, instr) -> bool:
        """Execute a call.  Returns True when a new frame was entered."""
        if instr.__class__ is ICall:
            target = self._eval(frame, instr.func)
            if not isinstance(target, CodePtr):
                raise ExecError(
                    "indirect call through non-code value {!r}".format(target),
                    proc.name,
                    block.label,
                    idx,
                )
            callee_name = target.name
            kind = "indirect"
        else:
            callee_name = instr.callee
            kind = "direct"

        args = [self._eval(frame, a) for a in instr.args]
        self.call_count += 1
        if self.collect_site_counts:
            self.site_counts[(proc.module, instr.site_id)] += 1

        callee = self._procs.get(callee_name)
        if callee is not None:
            if self._sink_call:
                self.sink.on_call(proc, callee_name, kind, len(args))
            self._push_frame(callee, args, dest=instr.dest)
            return True

        builtin = self._builtins.get(callee_name)
        if builtin is None:
            raise ExecError(
                "call to unresolved external @{}".format(callee_name),
                proc.name,
                block.label,
                idx,
            )
        if self._sink_call:
            self.sink.on_call(proc, callee_name, "builtin", len(args))
        result = builtin(args)
        if instr.dest is not None:
            frame.regs[instr.dest.name] = result
        return False

    def _do_return(self, frame: _Frame, value: Optional[Word]) -> bool:
        """Pop ``frame``; returns True when it was the root frame."""
        self._pop_frame()
        if not self._frames:
            return True
        caller = self._frames[-1]
        if self._sink_return:
            self.sink.on_return(frame.proc.name, caller.proc)
        if frame.dest is not None:
            if value is None:
                raise ExecError(
                    "void return into a result register from @{}".format(frame.proc.name)
                )
            caller.regs[frame.dest.name] = value
        return False

    # ------------------------------------------------------------------
    # Builtins (the runtime library)
    # ------------------------------------------------------------------

    def _bi_print_int(self, args: List[Word]) -> None:
        self._expect_args("print_int", args, 1)
        value = args[0]
        if not isinstance(value, int):
            raise ExecError("print_int of non-integer {!r}".format(value))
        self.output.append(value)

    def _bi_print_flt(self, args: List[Word]) -> None:
        self._expect_args("print_flt", args, 1)
        value = args[0]
        if not isinstance(value, float):
            raise ExecError("print_flt of non-float {!r}".format(value))
        self.output.append(value)

    def _bi_input(self, args: List[Word]) -> int:
        self._expect_args("input", args, 1)
        index = args[0]
        if not isinstance(index, int):
            raise ExecError("input index must be an integer")
        if 0 <= index < len(self.inputs):
            value = self.inputs[index]
            if isinstance(value, float):
                raise ExecError("input({}) holds a float; use inputs of int".format(index))
            return value
        return 0

    def _bi_input_len(self, args: List[Word]) -> int:
        self._expect_args("input_len", args, 0)
        return len(self.inputs)

    def _bi_exit(self, args: List[Word]) -> None:
        self._expect_args("exit", args, 1)
        code = args[0]
        if not isinstance(code, int):
            raise ExecError("exit code must be an integer")
        raise _Exit(code)

    def _bi_abs(self, args: List[Word]) -> int:
        self._expect_args("abs", args, 1)
        value = args[0]
        if not isinstance(value, int):
            raise ExecError("abs of non-integer {!r}".format(value))
        return wrap_int(abs(value))

    def _bi_sbrk(self, args: List[Word]) -> int:
        self._expect_args("sbrk", args, 1)
        words = args[0]
        if not isinstance(words, int):
            raise ExecError("sbrk size must be an integer")
        return self.memory.sbrk(words)

    def _bi_va_arg(self, args: List[Word]) -> Word:
        self._expect_args("va_arg", args, 1)
        frame = self._frames[-1]
        index = args[0]
        if not isinstance(index, int):
            raise ExecError("va_arg index must be an integer")
        if 0 <= index < len(frame.varargs):
            return frame.varargs[index]
        return 0

    def _bi_va_count(self, args: List[Word]) -> int:
        self._expect_args("va_count", args, 0)
        return len(self._frames[-1].varargs)

    @staticmethod
    def _expect_args(name: str, args: List[Word], count: int) -> None:
        if len(args) != count:
            raise ExecError(
                "builtin @{} expects {} args, got {}".format(name, count, len(args))
            )


def run_program(
    program: Program,
    inputs: Sequence[Union[int, float]] = (),
    entry: str = "main",
    sink: Optional[EventSink] = None,
    max_steps: int = DEFAULT_MAX_STEPS,
    collect_site_counts: bool = False,
    collect_block_counts: bool = False,
    engine: str = DEFAULT_ENGINE,
) -> Result:
    """One-shot convenience wrapper around :class:`Interpreter`."""
    interp = Interpreter(
        program,
        inputs,
        sink=sink,
        max_steps=max_steps,
        collect_site_counts=collect_site_counts,
        collect_block_counts=collect_block_counts,
        engine=engine,
    )
    return interp.run(entry)
