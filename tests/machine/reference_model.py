"""The per-event PA8000 model, kept as the oracle for the table-driven one.

This is :class:`repro.machine.pa8000.PA8000Model` as it was before its
hot path was rewritten: every fetch looks its address up through
:meth:`CodeLayout.instr_addr`, every cache access and branch goes
through :meth:`DirectMappedCache.access` and the
:class:`TwoBitPredictor` methods, and save traffic is charged word by
word.  ``tests/machine/test_model_oracle.py`` asserts the production
model reproduces every :class:`MachineMetrics` field it computes.
Apart from its name and the dropped ``_proc_regs`` table, which
nothing read, the class is unchanged.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.interp.events import EventSink
from repro.ir.program import Program
from repro.machine import (
    CodeLayout,
    DirectMappedCache,
    MachineConfig,
    MachineMetrics,
    TwoBitPredictor,
)
from repro.machine.pa8000 import FRAME_BYTES, SIM_STACK_BASE, WORD_BYTES


class ReferencePA8000Model(EventSink):
    """EventSink that accumulates machine metrics during a run."""

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
        self._last_pc = 0

    # ------------------------------------------------------------------
    # Event callbacks
    # ------------------------------------------------------------------

    def on_instr(self, proc, label, index, instr) -> None:
        pc = self.layout.instr_addr(proc.name, label, index)
        self._last_pc = pc
        self.retired += 1
        self.icache.access(pc)
        rate = self._spill_rates.get(proc.name, 0.0)
        if rate:
            self._spill_acc += rate
            if self._spill_acc >= 1.0:
                self._spill_acc -= 1.0
                # One spill: a store or reload near the top of the frame.
                self.spills += 1
                self.retired += 1
                self.icache.access(pc)
                self.dcache.access(SIM_STACK_BASE - self.depth * FRAME_BYTES - 8)

    def on_branch(self, proc, label, index, kind, taken, target_label) -> None:
        if kind == "cond":
            self.predictor.predict_and_update(self._last_pc, taken)
        else:  # unconditional jump: direction known
            self.predictor.force_correct()

    def on_call(self, caller, callee_name, kind, n_args) -> None:
        self.calls += 1
        if kind == "indirect":
            self.predictor.force_mispredict()
        else:
            self.predictor.force_correct()

        # Caller-save spills and excess outgoing arguments hit the stack.
        saves = self._save_counts.get(caller.name, self.config.max_save_regs)
        mem_args = max(0, n_args - self.config.reg_args)
        self._frame_traffic(saves + mem_args, store=True)

        if kind == "builtin":
            # The library body executes off-image: count its retired
            # instructions and its (always mispredicted) return.
            self.retired += self.config.builtin_instrs
            self.predictor.force_mispredict()
            self._frame_traffic(saves + mem_args, store=False)
        else:
            self.depth += 1

    def on_return(self, callee_name, caller) -> None:
        self.depth = max(0, self.depth - 1)
        # "the PA8000 always mispredicts procedure return branches"
        self.predictor.force_mispredict()
        saves = self._save_counts.get(caller.name, self.config.max_save_regs)
        self._frame_traffic(saves, store=False)

    def on_mem(self, addr, is_store) -> None:
        self.dcache.access(addr * WORD_BYTES)

    def _frame_traffic(self, words: int, store: bool) -> None:
        """Save/restore traffic at the current simulated frame."""
        base = SIM_STACK_BASE - self.depth * FRAME_BYTES
        for offset in range(words):
            self.retired += 1  # the save/restore instruction itself
            self.icache.access(self._last_pc)  # fetched near the call site
            self.dcache.access(base - offset * WORD_BYTES)

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
            icache_accesses=self.icache.accesses,
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
