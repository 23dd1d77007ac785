"""Layout and the PA8000 machine model end to end."""

import pytest

from repro.core import HLOConfig, run_hlo
from repro.frontend import compile_program
from repro.machine import (
    CODE_BASE,
    INSTR_BYTES,
    CodeLayout,
    MachineConfig,
    PA8000Model,
    simulate,
)

CALLY = [
    (
        "m",
        """
        int tiny(int x) { return x + 1; }
        int main() {
          int total = 0;
          for (int i = 0; i < 50; i++) total += tiny(i);
          print_int(total);
          return 0;
        }
        """,
    )
]


class TestLayout:
    def test_addresses_contiguous_and_unique(self):
        program = compile_program(CALLY)
        layout = CodeLayout(program)
        addrs = set()
        for proc in program.all_procs():
            for label, block in proc.blocks.items():
                for index in range(len(block)):
                    addr = layout.instr_addr(proc.name, label, index)
                    assert addr not in addrs
                    addrs.add(addr)
        assert min(addrs) == CODE_BASE
        assert layout.code_bytes == len(addrs) * INSTR_BYTES

    def test_entry_block_first(self):
        program = compile_program(CALLY)
        layout = CodeLayout(program)
        for proc in program.all_procs():
            assert (
                layout.instr_addr(proc.name, proc.entry, 0)
                == layout.proc_addrs[proc.name]
            )

    def test_unknown_block_falls_back(self):
        program = compile_program(CALLY)
        layout = CodeLayout(program)
        assert layout.instr_addr("main", "ghost", 0) == layout.proc_addrs["main"]


class TestSimulation:
    def test_metrics_consistency(self):
        program = compile_program(CALLY)
        metrics, result = simulate(program)
        assert result.output == [sum(range(1, 51))]
        assert metrics.instructions >= result.steps  # overhead included
        # Builtin (library) bodies retire instructions without touching
        # the simulated image's I-cache; everything else is fetched.
        assert result.steps <= metrics.icache_accesses <= metrics.instructions
        assert metrics.cycles > 0
        assert 0 <= metrics.icache_miss_rate <= 1
        assert 0 <= metrics.branch_miss_rate <= 1
        assert metrics.cpi == pytest.approx(metrics.cycles / metrics.instructions)

    def test_returns_always_mispredict(self):
        program = compile_program(CALLY)
        metrics, result = simulate(program)
        # 50 calls to tiny + builtin print: every return mispredicts, so
        # mispredicts >= dynamic calls.
        assert metrics.branch_mispredicts >= 50

    def test_inlining_removes_call_overhead(self):
        program = compile_program(CALLY)
        base_metrics, base_result = simulate(program)

        inlined = compile_program(CALLY)
        run_hlo(inlined, HLOConfig(budget_percent=2000))
        opt_metrics, opt_result = simulate(inlined)

        assert opt_result.behavior() == base_result.behavior()
        # The Figure 7 shape: fewer retired instructions, fewer D-cache
        # accesses (save/restore gone), fewer branches, fewer cycles.
        assert opt_metrics.instructions < base_metrics.instructions
        assert opt_metrics.dcache_accesses < base_metrics.dcache_accesses
        assert opt_metrics.branches < base_metrics.branches
        assert opt_metrics.cycles < base_metrics.cycles

    def test_relative_to(self):
        program = compile_program(CALLY)
        metrics, _ = simulate(program)
        rel = metrics.relative_to(metrics)
        assert rel["relative_cycles"] == 1.0
        assert rel["relative_dcache_accesses"] == 1.0

    def test_machine_config_penalties_matter(self):
        program = compile_program(CALLY)
        cheap, _ = simulate(program, config=MachineConfig(mispredict_penalty=0.0))
        dear, _ = simulate(program, config=MachineConfig(mispredict_penalty=50.0))
        assert dear.cycles > cheap.cycles

    def test_small_icache_hurts(self):
        program = compile_program(CALLY)
        big, _ = simulate(program, config=MachineConfig(icache_bytes=65536))
        tiny, _ = simulate(program, config=MachineConfig(icache_bytes=64))
        assert tiny.icache_misses > big.icache_misses


class TestRegisterPressure:
    """The spill model: big routines pay per-instruction memory traffic."""

    def build_fat_proc(self, nregs):
        from repro.frontend import compile_program

        # A chain of dependent locals forces many live virtual registers.
        lines = ["int main() {", "  int a0 = input(0);"]
        for i in range(1, nregs):
            lines.append("  int a{} = a{} + {};".format(i, i - 1, i))
        total = " + ".join("a{}".format(i) for i in range(nregs))
        lines.append("  print_int({});".format(total))
        lines.append("  return 0;")
        lines.append("}")
        return compile_program([("m", "\n".join(lines))])

    def test_small_proc_never_spills(self):
        program = self.build_fat_proc(6)
        model = PA8000Model(program)
        from repro.interp import Interpreter

        Interpreter(program, [1], sink=model).run()
        assert model.state.spills == 0

    def test_fat_proc_spills(self):
        program = self.build_fat_proc(80)
        model = PA8000Model(program)
        from repro.interp import Interpreter

        Interpreter(program, [1], sink=model).run()
        assert model.state.spills > 0

    def test_spills_raise_cycles(self):
        program = self.build_fat_proc(80)
        free, _ = simulate(program, [1], config=MachineConfig(spill_rate_per_reg=0.0))
        taxed, _ = simulate(program, [1], config=MachineConfig(spill_rate_per_reg=0.05))
        assert taxed.cycles > free.cycles
        assert taxed.dcache_accesses > free.dcache_accesses

    def test_spill_rate_capped(self):
        config = MachineConfig()
        program = self.build_fat_proc(120)
        model = PA8000Model(program)
        assert max(model._spill_rates.values()) <= config.max_spill_rate
