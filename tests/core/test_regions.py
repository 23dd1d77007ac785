"""Demand-driven region formation and the region-scoped planner.

The ``strategy="demand"`` pipeline (docs/performance.md, "Inlining
strategies") replaces the global multi-pass clone/inline loop with
profile-hot regions optimized under per-region budgets.  These tests
pin the properties the scale bench relies on: regions are disjoint and
capped, cold procedures never join a region, the shared budget's
incremental accounting stays exact, and the strategy preserves
behavior on arbitrary generated programs.
"""

import pytest

from repro.analysis import AnalysisManager
from repro.core import HLOConfig, run_hlo
from repro.core.budget import Budget, program_cost
from repro.core.cloner import CloneDatabase
from repro.core.regions import REGION_LIMIT, demand_stage, form_regions
from repro.core.report import HLOReport
from repro.frontend import compile_program
from repro.interp import run_program
from repro.ir import verify_program
from repro.profile import train
from repro.resilience import PassGuard
from repro.workloads.generator import generate_sources

HOT_COLD = [(
    "m",
    """
    int hot(int x) { return x * 3 + 1; }
    int lukewarm(int x) { return hot(x) - 2; }
    int cold(int x) { return x - 7; }
    int main() {
      int total = 0;
      for (int i = 0; i < 500; i++) total = total + lukewarm(i);
      if (input(0) > 0) total = total + cold(total);
      print_int(total);
      return 0;
    }
    """,
)]


def _trained(sources, train_input=(0,)):
    """An exact profile for ``sources`` (cold paths stay at zero)."""
    return train(sources, [list(train_input)])


def _regions_for(sources, config, counts):
    from repro.analysis.callgraph import CallGraph
    from repro.analysis.freq import entry_counts

    program = compile_program(sources)
    graph = CallGraph(program)
    entry = entry_counts(program, graph, counts)
    return program, form_regions(program, config, graph, entry, {}, counts)


class TestFormation:
    def test_regions_are_disjoint_and_capped(self):
        profile = _trained(HOT_COLD)
        config = HLOConfig(strategy="demand")
        _, regions = _regions_for(HOT_COLD, config, profile.site_counts)
        assert regions
        assert len(regions) <= REGION_LIMIT
        seen = set()
        for region in regions:
            assert not (region.procs & seen)
            seen |= region.procs

    def test_cold_proc_never_seeds_a_region(self):
        # cold() is statically reachable but its guarding branch never
        # fires at train time: the planner must not seed a region from
        # it (it may still be pulled into a caller's region — membership
        # costs nothing; transforming its dead site would, see below).
        profile = _trained(HOT_COLD)
        config = HLOConfig(strategy="demand")
        _, regions = _regions_for(HOT_COLD, config, profile.site_counts)
        assert "cold" not in {r.seed for r in regions}
        members = set().union(*(r.procs for r in regions))
        assert "hot" in members or "lukewarm" in members

    def test_no_profile_means_static_heat(self):
        # Without counts the planner falls back to static frequency
        # estimates; the loop-resident call chain still forms a region.
        config = HLOConfig(strategy="demand")
        _, regions = _regions_for(HOT_COLD, config, None)
        assert regions


class TestDemandStage:
    def _run_stage(self, sources, config, counts):
        program = compile_program(sources)
        budget = Budget(program, config.budget_percent, config.pass_limit)
        report = HLOReport()
        performed = demand_stage(
            program, config, budget, report, CloneDatabase(), counts,
            AnalysisManager(program), PassGuard(report),
        )
        return program, budget, report, performed

    def test_incremental_budget_matches_program_cost(self):
        # The stage charges the shared budget incrementally (size^2
        # deltas over mutated procs) instead of recomputing the whole
        # program cost per region; the two must agree exactly.
        profile = _trained(HOT_COLD)
        config = HLOConfig(strategy="demand")
        program, budget, report, performed = self._run_stage(
            HOT_COLD, config, profile.site_counts
        )
        assert performed > 0
        assert budget.current == pytest.approx(program_cost(program))
        verify_program(program)

    def test_hot_call_sites_transformed(self):
        profile = _trained(HOT_COLD)
        config = HLOConfig(strategy="demand")
        program, _, report, performed = self._run_stage(
            HOT_COLD, config, profile.site_counts
        )
        assert report.regions_formed >= 1
        assert report.inlines + report.clones == performed

    def test_measured_cold_site_left_alone(self):
        # The never-taken cold() call sits inside main's region, but a
        # zero-weight site yields no benefit: demand must leave it (and
        # the cold procedure) exactly as the front end emitted them.
        from repro.ir import Call

        profile = _trained(HOT_COLD)
        config = HLOConfig(strategy="demand")
        program, _, _, _ = self._run_stage(
            HOT_COLD, config, profile.site_counts
        )
        assert program.proc("cold") is not None
        main = program.proc("main")
        callees = [
            instr.callee
            for block in main.blocks.values()
            for instr in block.instrs
            if isinstance(instr, Call)
        ]
        assert "cold" in callees

    def test_zero_region_budget_blocks_transforms(self):
        profile = _trained(HOT_COLD)
        loose = HLOConfig(strategy="demand")
        tight = HLOConfig(strategy="demand", region_budget_percent=0.0)
        _, _, _, with_budget = self._run_stage(
            HOT_COLD, loose, profile.site_counts
        )
        _, _, report, without = self._run_stage(
            HOT_COLD, tight, profile.site_counts
        )
        assert without <= with_budget
        assert report.region_budget_exhausted >= 0


class TestStrategyDriver:
    @pytest.mark.parametrize("seed", (0, 9, 23, 42))
    def test_demand_preserves_behavior(self, seed):
        sources = generate_sources(seed)
        before = run_program(compile_program(sources)).behavior()
        program = compile_program(sources)
        run_hlo(program, HLOConfig(strategy="demand"))
        verify_program(program)
        assert run_program(program).behavior() == before

    def test_demand_is_deterministic(self):
        from repro.ir.printer import print_module

        def build():
            program = compile_program(generate_sources(7))
            run_hlo(program, HLOConfig(strategy="demand"))
            return "".join(
                print_module(module) for module in program.modules.values()
            )

        assert build() == build()

    def test_unknown_strategy_rejected(self):
        program = compile_program(HOT_COLD)
        with pytest.raises(ValueError):
            run_hlo(program, HLOConfig(strategy="eager"))

    def test_default_strategy_is_global(self):
        assert HLOConfig().strategy == "global"
