"""The clone pass (Figure 3): specs, groups, database, retargeting."""

import pytest

from repro.core import (
    Budget,
    CloneDatabase,
    HLOConfig,
    HLOReport,
    build_clone_groups,
    calling_context,
    clone_pass,
    context_matches,
    make_clone_spec,
    param_usage_weights,
    spec_key,
)
from repro.analysis import AnalysisManager, CallGraph
from repro.frontend import compile_program
from repro.interp import run_program
from repro.ir import Call, FuncRef, Imm, verify_program


DISPATCH = [
    (
        "m",
        """
        int compute(int mode, int x) {
          if (mode == 0) return x + 1;
          if (mode == 1) return x * 2;
          return x - 3;
        }
        int main() {
          int total = 0;
          for (int i = 0; i < 10; i++) {
            total += compute(0, i);
            total += compute(0, i + 1);
            total += compute(1, i);
          }
          print_int(total);
          return total % 31;
        }
        """,
    )
]


class TestDescriptors:
    def test_calling_context_collects_constants(self):
        program = compile_program(DISPATCH)
        graph = CallGraph(program)
        site = next(s for s in graph.sites if s.callee and s.callee.name == "compute")
        context = calling_context(site.instr)
        assert 0 in context and context[0] == Imm(0)
        assert 1 not in context  # x is a register

    def test_param_usage_weights_branchy_param_highest(self):
        program = compile_program(DISPATCH)
        weights = param_usage_weights(program.proc("compute"), HLOConfig())
        assert weights[0] > weights[1]  # mode steers branches

    def test_indirect_call_position_bonus(self):
        program = compile_program(
            [
                (
                    "m",
                    """
                    int apply(int f, int x) { return f(x) + x; }
                    int id(int v) { return v; }
                    int main() { return apply(&id, 1); }
                    """,
                )
            ]
        )
        weights = param_usage_weights(program.proc("apply"), HLOConfig())
        assert weights[0] > weights[1]

    def test_spec_intersects_context_and_usage(self):
        program = compile_program(DISPATCH)
        graph = CallGraph(program)
        site = next(s for s in graph.sites if s.callee and s.callee.name == "compute")
        usage = param_usage_weights(site.callee, HLOConfig())
        spec = make_clone_spec(site, usage)
        assert list(spec) == [0]

    def test_context_matches(self):
        call = Call(None, "f", [Imm(0), Imm(5)], 0)
        assert context_matches(call, {0: Imm(0)})
        assert not context_matches(call, {0: Imm(1)})
        assert not context_matches(call, {2: Imm(1)})
        assert context_matches(call, {0: Imm(0), 1: Imm(5)})

    def test_spec_key_stable(self):
        a = spec_key("f", {0: Imm(1), 2: FuncRef("g")})
        b = spec_key("f", {2: FuncRef("g"), 0: Imm(1)})
        assert a == b


def clone_groups_of(program, config=None):
    """Clone groups as clone_pass forms them, with no profile."""
    manager = AnalysisManager(program)
    return build_clone_groups(
        program, manager.callgraph(), config or HLOConfig(), None, manager
    )


class TestGroups:
    def test_compatible_sites_grouped(self):
        program = compile_program(DISPATCH)
        groups = clone_groups_of(program)
        mode0 = next(g for g in groups if g.spec.get(0) == Imm(0))
        assert len(mode0.sites) == 2  # both compute(0, ...) sites

    def test_groups_disabled_yields_singletons(self):
        program = compile_program(DISPATCH)
        config = HLOConfig(clone_groups=False)
        groups = clone_groups_of(program, config)
        assert all(len(g.sites) == 1 for g in groups)

    def test_full_coverage_marks_deletable(self):
        sources = [
            (
                "m",
                """
                int only(int mode, int x) { if (mode) return x; return -x; }
                int main() { return only(1, input(0)) + only(1, input(1)); }
                """,
            )
        ]
        program = compile_program(sources)
        groups = clone_groups_of(program)
        assert groups and groups[0].deletes_clonee

    def test_address_taken_never_deletable(self):
        sources = [
            (
                "m",
                """
                int only(int mode, int x) { if (mode) return x; return -x; }
                int main() { int f = &only; return only(1, input(0)) + f(0, 1); }
                """,
            )
        ]
        program = compile_program(sources)
        groups = clone_groups_of(program)
        assert groups and not groups[0].deletes_clonee


class TestClonePass:
    def run_pass(self, program, config=None, budget_percent=2000):
        config = config or HLOConfig(budget_percent=budget_percent)
        budget = Budget(program, budget_percent)
        report = HLOReport()
        db = CloneDatabase()
        replaced = clone_pass(
            program, config, budget, report, 3, db, None, AnalysisManager(program)
        )
        return replaced, report, db

    def test_semantics_preserved(self):
        program = compile_program(DISPATCH)
        before = run_program(program).behavior()
        replaced, report, _db = self.run_pass(program)
        assert replaced >= 2
        assert report.clones >= 1
        verify_program(program)
        assert run_program(program).behavior() == before

    def test_arguments_edited_from_call_sites(self):
        program = compile_program(DISPATCH)
        self.run_pass(program)
        clones = [p for p in program.all_procs() if ".c" in p.name]
        assert clones
        for clone in clones:
            assert len(clone.params) == 1  # mode was edited out
        for site in CallGraph(program).sites:
            if site.callee is not None and ".c" in site.callee.name:
                assert len(site.instr.args) == 1

    def test_database_reuses_clones(self):
        program = compile_program(DISPATCH)
        config = HLOConfig(budget_percent=2000)
        budget = Budget(program, 2000)
        report = HLOReport()
        db = CloneDatabase()
        manager = AnalysisManager(program)
        clone_pass(program, config, budget, report, 3, db, None, manager)
        first_clones = report.clones
        # A second pass with the same database must not recreate them.
        clone_pass(program, config, budget, report, 3, db, None, manager)
        assert report.clones == first_clones

    def test_zero_budget_blocks_cloning(self):
        program = compile_program(DISPATCH)
        replaced, report, _db = self.run_pass(
            program, HLOConfig(budget_percent=0), budget_percent=0
        )
        # Deletable groups cost nothing, so only those may proceed; for
        # this program the mode=0 group does not cover all sites, so it
        # has a real cost and is rejected.
        clones = [p for p in program.all_procs() if ".c" in p.name]
        non_deletable = [c for c in clones]
        assert report.clones <= 1

    def test_recursive_pass_through(self):
        # The paper's recursive pass-through-parameter case: n varies at
        # run time, mode is the cloned-in constant; the clone's own
        # recursive call must end up calling the clone.
        sources = [
            (
                "m",
                """
                int walk(int n, int mode) {
                  if (n <= 0) return 0;
                  if (mode) print_int(n);
                  return n + walk(n - 1, mode);
                }
                int main() { return walk(input(0), 0) % 31; }
                """,
            )
        ]
        program = compile_program(sources)
        before = run_program(program, [5]).behavior()
        replaced, report, _db = self.run_pass(program)
        verify_program(program)
        assert run_program(program, [5]).behavior() == before
        clones = [p for p in program.all_procs() if p.name.startswith("walk.c")]
        assert clones
        self_calls = [
            i.callee for _b, _i, i in clones[0].call_sites() if isinstance(i, Call)
        ]
        assert self_calls and all(c == clones[0].name for c in self_calls)


class TestCloneNameRecycling:
    """Regression: a deleted clone's name must never be recycled for a
    clone with a different spec — a stale database entry would then
    retarget sites to a wrong-signature procedure (found by the PGO
    property test, seed 375968)."""

    def test_fresh_name_never_recycled(self):
        program = compile_program(DISPATCH)
        db = CloneDatabase()
        name1 = db.fresh_name(program, "compute")
        # Even though the program never gained `name1`, the run did.
        name2 = db.fresh_name(program, "compute")
        assert name1 != name2

    def test_seed_375968_pipeline(self):
        from repro.core import run_hlo
        from repro.profile import ProfileDatabase, annotate_program, instrument_program
        from repro.workloads.generator import generate_sources

        sources = generate_sources(375968)
        reference = run_program(compile_program(sources), max_steps=500_000)

        instrumented = compile_program(sources)
        probe_map = instrument_program(instrumented)
        trained = run_program(instrumented, max_steps=2_000_000)
        db = ProfileDatabase.from_training_run(
            instrumented, probe_map, trained.probe_counts, trained.steps
        )
        final = compile_program(sources)
        annotate_program(final, db)
        run_hlo(final, HLOConfig(budget_percent=400), site_counts=db.site_counts)
        verify_program(final)
        # Every direct call's arity matches its callee's signature.
        for proc in final.all_procs():
            for _b, _i, instr in proc.call_sites():
                if isinstance(instr, Call):
                    callee = final.proc(instr.callee)
                    if callee is not None:
                        assert len(instr.args) == len(callee.params), instr
        result = run_program(final, max_steps=2_000_000)
        assert result.behavior() == reference.behavior()
