"""A trace-driven PA8000-style machine model.

The paper explains its Figure 7 simulation results through five machine
effects, all modelled here:

- **retired instructions** drop when calls are inlined, because the
  call-convention overhead (caller-save stores/reloads, outgoing
  argument traffic) disappears with the call;
- **D-cache accesses** drop for the same reason ("a big part of this
  dramatic drop is the elimination of caller and callee register save
  operations at call sites that have been inlined");
- **I-cache** behaviour reflects the code expansion: a bigger image
  raises the miss *rate* even as total accesses fall;
- **branches** include calls and returns; the PA8000 "always
  mispredicts procedure return branches", and conditional branches use
  a PC-indexed two-bit predictor subject to collisions;
- **cycles** combine issue-limited execution with miss and
  misprediction penalties.

Capacities are scaled to our workload sizes (DESIGN.md, substitutions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..interp.events import EventSink
from ..interp.interpreter import (
    DEFAULT_ENGINE,
    DEFAULT_MAX_STEPS,
    Interpreter,
    Result,
)
from ..ir.instructions import Load, Store
from ..ir.program import Program
from .branch import TAKEN_THRESHOLD, TwoBitPredictor
from .cache import DirectMappedCache
from .layout import CodeLayout
from .metrics import MachineMetrics

WORD_BYTES = 8
SIM_STACK_BASE = 0x3000_0000 * WORD_BYTES
FRAME_BYTES = 64

# One instruction's fetch: (I-cache line, its tag slot, its procedure's
# spill rate, predictor slot).
Fetch = Tuple[int, int, float, int]


@dataclass
class MachineConfig:
    """Machine parameters (defaults approximate a scaled-down PA8000)."""

    icache_bytes: int = 8192
    dcache_bytes: int = 8192
    line_bytes: int = 32
    predictor_entries: int = 256
    issue_width: float = 2.0
    icache_miss_penalty: float = 20.0
    dcache_miss_penalty: float = 20.0
    mispredict_penalty: float = 5.0
    # Calling convention: registers saved/restored around a call, and
    # the register-argument budget beyond which arguments go to memory.
    max_save_regs: int = 6
    reg_args: int = 4
    # Cost of a runtime-library (builtin) call body, in instructions.
    builtin_instrs: int = 4
    # Register pressure: routines whose virtual-register count exceeds
    # the register file spill — extra memory traffic proportional to the
    # excess, charged per executed instruction.  This is the effect the
    # paper's cold-site penalty guards against ("increases in register
    # pressure which push spills into critical code paths") and what
    # eventually bends the Figure 8 curves back up under unbounded
    # inlining.  The PA-RISC file has 31 GPRs; ~28 are allocatable.
    reg_file: int = 28
    spill_rate_per_reg: float = 0.004
    max_spill_rate: float = 0.35


# Token operations: what a PA8000 token does after its fetches.
_FETCH, _TAKEN, _NOT_TAKEN, _JUMP, _CALL, _ICALL, _BCALL, _RESUME = range(8)


class PA8000Model(EventSink):
    """EventSink that accumulates machine metrics during a run.

    Each piece of work does the least that keeps :meth:`metrics` exact
    (docs/machine.md, "Host cost").  The model compiles each event into
    a token of numbers (I-cache lines and tag slots, spill rate,
    predictor slot, save words) and applies tokens in one loop,
    :meth:`drain`, over local variables: the only code that changes its
    metrics.  The fast engine appends the tokens to its tape; the
    ``on_*`` callbacks, which the reference engine and the fast
    engine's direct paths call, build the same tokens and drain them.
    The I-cache tags are checked only when the fetched line changes,
    and the cache and predictor updates are written out against the
    tag and counter state :class:`DirectMappedCache` and
    :class:`TwoBitPredictor` own.  The I-cache's access count is not
    kept per fetch; :meth:`metrics` derives it.

    A token is ``(op, n, first, slot, rest, last, pslot, each, rate,
    save)``: ``n`` fetches (0 for none) whose first line and its tag
    slot are ``first`` and ``slot``, whose later changes of line are
    ``rest`` (``(line, slot)`` pairs), whose last line is ``last`` and
    last predictor slot ``pslot``, with the procedure's spill ``rate``
    added once per fetch (``each``); then ``op``, a control transfer,
    with ``save``, ``(words, span)`` of stack traffic or None.
    """

    def __init__(self, program: Program, config: Optional[MachineConfig] = None):
        self.config = config or MachineConfig()
        self.layout = CodeLayout(program)
        self.icache = DirectMappedCache(self.config.icache_bytes, self.config.line_bytes)
        self.dcache = DirectMappedCache(self.config.dcache_bytes, self.config.line_bytes)
        self.predictor = TwoBitPredictor(self.config.predictor_entries)
        self.retired = 0
        self.calls = 0
        self.spills = 0
        self.depth = 0
        self._save_counts: Dict[str, int] = {}
        self._spill_rates: Dict[str, float] = {}
        for proc in program.all_procs():
            regs = len(proc.reg_names())
            self._save_counts[proc.name] = min(regs, self.config.max_save_regs)
            excess = max(0, regs - self.config.reg_file)
            self._spill_rates[proc.name] = min(
                self.config.max_spill_rate, excess * self.config.spill_rate_per_reg
            )
        self._spill_acc = 0.0
        self._shift = self.config.line_bytes.bit_length() - 1
        # Lines from one stack word to the next (1 unless lines are
        # narrower than a word).
        self._word_lines = max(1, WORD_BYTES >> self._shift)
        # Retired instructions that never touch the I-cache (builtin bodies).
        self._off_image = 0
        # The I-cache line last checked (-1: none yet) and the predictor
        # slot of the last fetched instruction (pc 0's before any).
        self._line = -1
        self._pslot = 0
        # Per frame depth, the D-cache lines of each span of save
        # traffic (see _stack_lines): derived from the config alone.
        self._frame_lines: List[Dict[int, tuple]] = []
        # The tokens bind this model's lines, tag slots, spill rates and
        # save counts, as they were when it was built, so its plans
        # serve no other model: the key is a token only it holds, and
        # the plans keyed on it hold nothing of the model.
        self.token_key = object()

    # ------------------------------------------------------------------
    # Tokens
    # ------------------------------------------------------------------

    def _fetch(self, proc_name: str, label: str, index: int) -> Fetch:
        """The fetch of the instruction at ``index`` of a block."""
        pc = self.layout.instr_addr(proc_name, label, index)
        line = pc >> self._shift
        return (
            line,
            line % self.icache.num_lines,
            self._spill_rates.get(proc_name, 0.0),
            (pc >> 2) % self.predictor.entries,
        )

    def _fetch_token(self, fetches: Sequence[Fetch]) -> tuple:
        """The token of a group of fetches in one procedure.  Only a
        fetch that changes line checks a tag: the group's first line
        when the line last checked differs, then each later change of
        line, which is known here."""
        lines: List[Tuple[int, int]] = []
        for line, slot, _rate, _pslot in fetches:
            if not lines or lines[-1][0] != line:
                lines.append((line, slot))
        n = len(fetches)
        rate = fetches[0][2]
        first, slot = lines[0]
        return (
            _FETCH, n, first, slot, tuple(lines[1:]), lines[-1][0], fetches[-1][3],
            range(n) if rate else (), rate, None,
        )

    @staticmethod
    def _control(op: int, words: int = 0) -> tuple:
        """The token of a control transfer with ``words`` of save traffic."""
        save = (words, (words - 1) * WORD_BYTES) if words else None
        return (op, 0, 0, 0, (), 0, 0, (), 0.0, save)

    def fetch_tokens(self, events):
        """One group per part in a procedure that does not spill: its
        fetches touch only the I-cache and the predictor slot, which no
        event inside the part reads.  In one that spills, a group ends
        at every load and store, so the spill that instruction's fetch
        may cause reaches the D-cache before the instruction's own
        access does."""
        fetches = [self._fetch(proc.name, label, index) for proc, label, index, _ in events]
        if not fetches[0][2]:  # one procedure, one spill rate
            return [(len(fetches), self._fetch_token(fetches))]
        groups = []
        start = 0
        for end, event in enumerate(events, 1):
            if end == len(events) or isinstance(event[3], (Load, Store)):
                groups.append((end - start, self._fetch_token(fetches[start:end])))
                start = end
        return groups

    def branch_token(self, proc, label, index, kind, taken, target_label):
        if kind != "cond":
            return self._control(_JUMP)
        return self._control(_TAKEN if taken else _NOT_TAKEN)

    def call_token(self, caller, callee_name, kind, n_args):
        # Caller-save spills and excess outgoing arguments hit the stack.
        config = self.config
        words = self._save_counts.get(caller.name, config.max_save_regs)
        if n_args > config.reg_args:
            words += n_args - config.reg_args
        if kind == "builtin":
            return self._control(_BCALL, words)
        return self._control(_ICALL if kind == "indirect" else _CALL, words)

    def return_token(self, callee_name):
        return None  # a return's work depends only on the caller it resumes

    def resume_token(self, caller):
        saves = self._save_counts.get(caller.name, self.config.max_save_regs)
        return self._control(_RESUME, saves)

    def join(self, first, second):
        """A fetch group's token and the control transfer after it."""
        return (second[0],) + first[1:9] + (second[9],)

    # ------------------------------------------------------------------
    # Event callbacks: the same tokens, one at a time
    # ------------------------------------------------------------------

    def on_instr(self, proc, label, index, instr) -> None:
        self.drain([self._fetch_token([self._fetch(proc.name, label, index)])])

    def on_branch(self, proc, label, index, kind, taken, target_label) -> None:
        self.drain([self.branch_token(proc, label, index, kind, taken, target_label)])

    def on_call(self, caller, callee_name, kind, n_args) -> None:
        self.drain([self.call_token(caller, callee_name, kind, n_args)])

    def on_return(self, callee_name, caller) -> None:
        self.drain([self.resume_token(caller)])

    def on_mem(self, addr, is_store) -> None:
        self.drain([~addr if is_store else addr])

    # ------------------------------------------------------------------
    # The tape loop
    # ------------------------------------------------------------------

    def _stack_lines(self, base: int, span: int) -> Tuple[Tuple[int, int], ...]:
        """``(line, tag slot)`` of each D-cache line that save traffic
        from ``base`` down through ``base - span`` touches, top first."""
        shift = self._shift
        lines = self.dcache.num_lines
        last = (base - span) >> shift
        return tuple(
            (line, line % lines)
            for line in range(base >> shift, last - 1, -self._word_lines)
        )

    def drain(self, tape) -> None:
        """Apply ``tape``'s tokens in order: the model's only update.

        - **Fetches.**  ``retired`` and the predictor slot take the
          group's count and last fetch.  Every other I-cache access
          until the next fetch (spill and save traffic) is to the line
          just fetched, so it hits: only a fetch that changes line can
          miss, and only then are the tags checked.
        - **Spills.**  The accumulator receives the same floating-point
          additions as one fetch at a time, in fetch order.  A group's
          spills are stores or reloads near the top of one frame, with
          no other D-cache access between them, so they cost one tag
          check.
        - **Save traffic** (calls and returns) runs down from the top of
          the frame: a stack line's first word decides hit or miss and
          the rest of the line hits, so one tag check per line.  The
          lines of each span of words are worked out once per frame
          depth.  A builtin's reloads are checked again after its saves.
        - **Data accesses** are ``addr``, or ``~addr`` for a store.
        """
        tuple_ = tuple
        str_ = str
        taken, not_taken, jump = _TAKEN, _NOT_TAKEN, _JUMP
        call, icall, bcall, resume = _CALL, _ICALL, _BCALL, _RESUME
        threshold = TAKEN_THRESHOLD
        word_bytes = WORD_BYTES
        frame_bytes = FRAME_BYTES
        icache = self.icache
        dcache = self.dcache
        predictor = self.predictor
        itags = icache.tags
        dtags = dcache.tags
        dlines = dcache.num_lines
        counters = predictor.counters
        shift = self._shift
        builtin_instrs = self.config.builtin_instrs
        frames = self._frame_lines
        retired = self.retired
        calls = self.calls
        spills = self.spills
        depth = self.depth
        off_image = self._off_image
        imisses = icache.misses
        daccesses = dcache.accesses
        dmisses = dcache.misses
        predictions = predictor.predictions
        mispredictions = predictor.mispredictions
        line = self._line
        pslot = self._pslot
        acc = self._spill_acc
        base = SIM_STACK_BASE - depth * frame_bytes  # the frame's top
        while len(frames) <= depth:
            frames.append({})
        here = frames[depth]  # span -> the lines its traffic touches
        for token in tape:
            if type(token) is tuple_:
                op, n, first, slot, rest, last, ps, each, rate, save = token
                if n:
                    retired += n
                    pslot = ps
                    if line != first and itags[slot] != first:
                        itags[slot] = first
                        imisses += 1
                    if rest:
                        for ln, slot in rest:
                            if itags[slot] != ln:
                                itags[slot] = ln
                                imisses += 1
                    line = last
                    if rate:
                        k = 0
                        for _ in each:
                            acc += rate
                            if acc >= 1.0:
                                acc -= 1.0
                                k += 1
                        if k:
                            spills += k
                            retired += k
                            daccesses += k
                            ln = (base - 8) >> shift
                            slot = ln % dlines
                            if dtags[slot] != ln:
                                dtags[slot] = ln
                                dmisses += 1
                if not op:
                    continue
                predictions += 1
                if op == taken:
                    counter = counters[pslot]
                    if counter < threshold:
                        mispredictions += 1
                    if counter < 3:
                        counters[pslot] = counter + 1
                    continue
                if op == not_taken:
                    counter = counters[pslot]
                    if counter >= threshold:
                        mispredictions += 1
                    if counter > 0:
                        counters[pslot] = counter - 1
                    continue
                if op == jump:  # direction known, predicted correctly
                    continue
                checks = 1
                if op == resume:
                    # "the PA8000 always mispredicts procedure return
                    # branches"; the restores are at the caller's frame.
                    if depth:
                        depth -= 1
                        base += frame_bytes
                        here = frames[depth]
                    mispredictions += 1
                else:
                    calls += 1
                    if op == icall:
                        mispredictions += 1
                    elif op == bcall:
                        # The library body executes off-image: its
                        # retired instructions and its (always
                        # mispredicted) return, then its reloads.
                        retired += builtin_instrs
                        off_image += builtin_instrs
                        predictions += 1
                        mispredictions += 1
                        checks = 2
                if save is not None:
                    words, span = save
                    retired += words * checks
                    daccesses += words * checks
                    if line < 0:
                        # Nothing fetched yet: the words are fetched from pc 0.
                        line = 0
                        if itags[0] != 0:
                            itags[0] = 0
                            imisses += 1
                    lines = here.get(span)
                    if lines is None:
                        lines = here[span] = self._stack_lines(base, span)
                    while checks:
                        checks -= 1
                        for ln, slot in lines:
                            if dtags[slot] != ln:
                                dtags[slot] = ln
                                dmisses += 1
                if op == call or op == icall:
                    depth += 1
                    base -= frame_bytes
                    if depth == len(frames):
                        frames.append({})
                    here = frames[depth]
            elif type(token) is not str_:  # not an indirect callee's name
                daccesses += 1
                ln = (token if token >= 0 else ~token) * word_bytes >> shift
                slot = ln % dlines
                if dtags[slot] != ln:
                    dtags[slot] = ln
                    dmisses += 1
        self.retired = retired
        self.calls = calls
        self.spills = spills
        self.depth = depth
        self._off_image = off_image
        icache.misses = imisses
        dcache.accesses = daccesses
        dcache.misses = dmisses
        predictor.predictions = predictions
        predictor.mispredictions = mispredictions
        self._line = line
        self._pslot = pslot
        self._spill_acc = acc

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def metrics(self, ir_steps: int = 0) -> MachineMetrics:
        config = self.config
        cycles = (
            self.retired / config.issue_width
            + self.icache.misses * config.icache_miss_penalty
            + self.dcache.misses * config.dcache_miss_penalty
            + self.predictor.mispredictions * config.mispredict_penalty
        )
        return MachineMetrics(
            cycles=cycles,
            instructions=self.retired,
            icache_accesses=self.retired - self._off_image,
            icache_misses=self.icache.misses,
            dcache_accesses=self.dcache.accesses,
            dcache_misses=self.dcache.misses,
            branches=self.predictor.predictions,
            branch_mispredicts=self.predictor.mispredictions,
            code_bytes=self.layout.code_bytes,
            ir_steps=ir_steps,
            calls=self.calls,
            spills=self.spills,
        )


def simulate(
    program: Program,
    inputs: Sequence[Union[int, float]] = (),
    entry: str = "main",
    config: Optional[MachineConfig] = None,
    max_steps: int = DEFAULT_MAX_STEPS,
    engine: str = DEFAULT_ENGINE,
) -> Tuple[MachineMetrics, Result]:
    """Run ``program`` on the machine model; returns (metrics, result)."""
    model = PA8000Model(program, config)
    interp = Interpreter(
        program, inputs, sink=model, max_steps=max_steps, engine=engine
    )
    result = interp.run(entry)
    return model.metrics(result.steps), result
