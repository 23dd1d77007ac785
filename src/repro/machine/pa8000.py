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


class PA8000Model(EventSink):
    """EventSink that accumulates machine metrics during a run.

    Each piece of work does the least that keeps :meth:`metrics` exact
    (docs/machine.md, "Host cost"): the fast engine runs the fetches as
    compiled fetch-group hooks (:meth:`fetch_groups`), the I-cache tags
    are checked only when the fetched line changes, and the cache and
    predictor updates are written out inline against the tag and
    counter state :class:`DirectMappedCache` and
    :class:`TwoBitPredictor` own.  The I-cache's access count is not
    kept per fetch; :meth:`metrics` derives it.
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
        # The fetch-group hooks bind this model's lines, tag slots, spill
        # rates and predictor slots, as they were when it was built, so
        # its plans serve no other model: the key is a token only it
        # holds, and the plans keyed on it hold nothing of the model.
        self.fetch_key = object()

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

    def _spill(self) -> None:
        """One spill: a store or reload near the top of the frame."""
        self.spills += 1
        self.retired += 1
        dcache = self.dcache
        dcache.accesses += 1
        dline = (SIM_STACK_BASE - self.depth * FRAME_BYTES - 8) >> self._shift
        dslot = dline % dcache.num_lines
        if dcache.tags[dslot] != dline:
            dcache.tags[dslot] = dline
            dcache.misses += 1

    # ------------------------------------------------------------------
    # Event callbacks
    # ------------------------------------------------------------------

    def fetch_groups(self, events):
        """One group per part in a procedure that does not spill: its
        fetches touch only the I-cache and the predictor slot, which no
        event inside the part reads.  In one that spills, a group ends
        at every load and store, so the spill that instruction's fetch
        may cause reaches the D-cache before the instruction's own
        access does."""
        fetches = [self._fetch(proc.name, label, index) for proc, label, index, _ in events]
        if not fetches[0][2]:  # one procedure, one spill rate
            return [(len(fetches), _fetch_hook(fetches))]
        groups = []
        start = 0
        for end, event in enumerate(events, 1):
            if end == len(events) or isinstance(event[3], (Load, Store)):
                groups.append((end - start, _fetch_hook(fetches[start:end])))
                start = end
        return groups

    def on_instr(self, proc, label, index, instr) -> None:
        line, slot, rate, self._pslot = self._fetch(proc.name, label, index)
        self.retired += 1
        if line != self._line:
            # Every other I-cache access until the next fetch (spill and
            # save traffic) is to this line, so it hits: only a fetch
            # that changes line can miss.
            self._line = line
            icache = self.icache
            if icache.tags[slot] != line:
                icache.tags[slot] = line
                icache.misses += 1
        if rate:
            acc = self._spill_acc + rate
            if acc >= 1.0:
                acc -= 1.0
                self._spill()
            self._spill_acc = acc

    def on_branch(self, proc, label, index, kind, taken, target_label) -> None:
        predictor = self.predictor
        predictor.predictions += 1
        if kind == "cond":
            counters = predictor.counters
            slot = self._pslot
            counter = counters[slot]
            if taken:
                if counter < TAKEN_THRESHOLD:
                    predictor.mispredictions += 1
                if counter < 3:
                    counters[slot] = counter + 1
            else:
                if counter >= TAKEN_THRESHOLD:
                    predictor.mispredictions += 1
                if counter > 0:
                    counters[slot] = counter - 1
        # else an unconditional jump: direction known, predicted correctly

    def on_call(self, caller, callee_name, kind, n_args) -> None:
        self.calls += 1
        predictor = self.predictor
        predictor.predictions += 1
        if kind == "indirect":
            predictor.mispredictions += 1

        # Caller-save spills and excess outgoing arguments hit the stack.
        config = self.config
        words = self._save_counts.get(caller.name, config.max_save_regs)
        if n_args > config.reg_args:
            words += n_args - config.reg_args
        self._frame_traffic(words)

        if kind == "builtin":
            # The library body executes off-image: count its retired
            # instructions and its (always mispredicted) return.
            self.retired += config.builtin_instrs
            self._off_image += config.builtin_instrs
            predictor.predictions += 1
            predictor.mispredictions += 1
            self._frame_traffic(words)
        else:
            self.depth += 1

    def on_return(self, callee_name, caller) -> None:
        if self.depth:
            self.depth -= 1
        # "the PA8000 always mispredicts procedure return branches"
        predictor = self.predictor
        predictor.predictions += 1
        predictor.mispredictions += 1
        saves = self._save_counts.get(caller.name, self.config.max_save_regs)
        self._frame_traffic(saves)

    def on_mem(self, addr, is_store) -> None:
        dcache = self.dcache
        dcache.accesses += 1
        line = addr * WORD_BYTES >> self._shift
        slot = line % dcache.num_lines
        if dcache.tags[slot] != line:
            dcache.tags[slot] = line
            dcache.misses += 1

    def _frame_traffic(self, words: int) -> None:
        """Save/restore traffic at the current simulated frame.

        Each word is a retired instruction, fetched from the line of the
        call or return (a hit, unless nothing has been fetched yet), and
        a D-cache access.  The words run down from the top of the frame,
        so a stack line's first word decides hit or miss and the rest of
        the line hits: one tag check per line, not per word.
        """
        if not words:
            return
        self.retired += words
        dcache = self.dcache
        dcache.accesses += words
        if self._line < 0:
            # Nothing fetched yet: the words are fetched from pc 0.
            self._line = 0
            icache = self.icache
            if icache.tags[0] != 0:
                icache.tags[0] = 0
                icache.misses += 1
        base = SIM_STACK_BASE - self.depth * FRAME_BYTES
        shift = self._shift
        tags = dcache.tags
        lines = dcache.num_lines
        last = base - (words - 1) * WORD_BYTES >> shift
        for line in range(base >> shift, last - 1, -self._word_lines):
            slot = line % lines
            if tags[slot] != line:
                tags[slot] = line
                dcache.misses += 1

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


def _fetch_hook(fetches: List[Fetch]):
    """The hook that does ``on_instr``'s work for one group of fetches.

    ``retired`` and the predictor slot take the group's count and last
    fetch.  Only a fetch that changes line checks a tag: the group's
    first line when the line last checked differs, then each later
    change of line, which is known here.  Spills touch no I-cache line,
    so they follow, one addition per fetch in fetch order.
    """
    lines = []  # (line, tag slot) at each change of line in the group
    for line, slot, _rate, _pslot in fetches:
        if not lines or lines[-1][0] != line:
            lines.append((line, slot))
    n = len(fetches)
    first, first_slot = lines[0]

    def hook(
        st, regs, _n=n, _l=first, _s=first_slot, _rest=tuple(lines[1:]),
        _last=lines[-1][0], _p=fetches[-1][3], _rate=fetches[0][2], _each=range(n),
    ):
        m = st.sink
        m.retired += _n
        m._pslot = _p
        icache = m.icache
        tags = icache.tags
        if m._line != _l and tags[_s] != _l:
            tags[_s] = _l
            icache.misses += 1
        for line, slot in _rest:
            if tags[slot] != line:
                tags[slot] = line
                icache.misses += 1
        m._line = _last
        if _rate:
            acc = m._spill_acc
            for _ in _each:
                acc += _rate
                if acc >= 1.0:
                    acc -= 1.0
                    m._spill()
            m._spill_acc = acc

    return hook


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
