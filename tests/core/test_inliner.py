"""The inline pass (Figure 4): transform mechanics, scheduling, budget."""

import pytest

from repro.analysis import AnalysisManager
from repro.core import Budget, HLOConfig, HLOReport, inline_pass, perform_inline
from repro.frontend import compile_program
from repro.interp import run_program
from repro.ir import Call, verify_program


def build(sources):
    return compile_program(sources)


def find_site(program, caller, callee):
    for block, index, instr in program.proc(caller).call_sites():
        if isinstance(instr, Call) and instr.callee == callee:
            return instr.site_id
    raise AssertionError("no site {} -> {}".format(caller, callee))


SIMPLE = [
    (
        "m",
        """
        int add3(int a, int b, int c) { return a + b + c; }
        int main() {
          print_int(add3(1, 2, 3));
          print_int(add3(4, 5, 6));
          return 0;
        }
        """,
    )
]


class TestPerformInline:
    def test_semantics_preserved(self):
        program = build(SIMPLE)
        before = run_program(program).behavior()
        report = HLOReport()
        site = find_site(program, "main", "add3")
        assert perform_inline(program, program.proc("main"), site, report, 0)
        verify_program(program)
        assert run_program(program).behavior() == before
        assert report.inlines == 1

    def test_call_replaced_not_duplicated(self):
        program = build(SIMPLE)
        report = HLOReport()
        site = find_site(program, "main", "add3")
        perform_inline(program, program.proc("main"), site, report, 0)
        remaining = [
            i
            for _b, _i, i in program.proc("main").call_sites()
            if isinstance(i, Call) and i.callee == "add3"
        ]
        assert len(remaining) == 1  # only the second site remains

    def test_missing_site_returns_false(self):
        program = build(SIMPLE)
        report = HLOReport()
        assert not perform_inline(program, program.proc("main"), 999, report, 0)

    def test_void_callee(self):
        program = build(
            [
                (
                    "m",
                    """
                    int g = 0;
                    void poke(int v) { g = v; }
                    int main() { poke(7); print_int(g); return 0; }
                    """,
                )
            ]
        )
        before = run_program(program).behavior()
        report = HLOReport()
        site = find_site(program, "main", "poke")
        perform_inline(program, program.proc("main"), site, report, 0)
        verify_program(program)
        assert run_program(program).behavior() == before

    def test_multi_return_callee(self):
        program = build(
            [
                (
                    "m",
                    """
                    int pick(int x) {
                      if (x > 10) return 1;
                      if (x > 5) return 2;
                      return 3;
                    }
                    int main() {
                      print_int(pick(20)); print_int(pick(7)); print_int(pick(1));
                      return 0;
                    }
                    """,
                )
            ]
        )
        before = run_program(program).behavior()
        report = HLOReport()
        for _ in range(3):
            sites = [
                i.site_id
                for _b, _idx, i in program.proc("main").call_sites()
                if isinstance(i, Call) and i.callee == "pick"
            ]
            if not sites:
                break
            perform_inline(program, program.proc("main"), sites[0], report, 0)
        verify_program(program)
        assert run_program(program).behavior() == before
        assert report.inlines == 3

    def test_self_recursive_unroll(self):
        program = build(
            [
                (
                    "m",
                    """
                    int count(int n) { if (n <= 0) return 0; return 1 + count(n - 1); }
                    int main() { return count(5); }
                    """,
                )
            ]
        )
        before = run_program(program).behavior()
        report = HLOReport()
        site = find_site(program, "count", "count")
        assert perform_inline(program, program.proc("count"), site, report, 0)
        verify_program(program)
        assert run_program(program).behavior() == before

    def test_profile_counts_flow(self):
        program = build(SIMPLE)
        callee = program.proc("add3")
        for block in callee.blocks.values():
            block.profile_count = 2
        caller = program.proc("main")
        for block in caller.blocks.values():
            block.profile_count = 1
        report = HLOReport()
        site = find_site(program, "main", "add3")
        perform_inline(program, caller, site, report, 0)
        # Half the callee's traffic moved into the caller.
        assert callee.blocks[callee.entry].profile_count == 1

    def test_cross_module_static_promotion(self):
        program = build(
            [
                (
                    "lib",
                    """
                    static int secret(int x) { return x * 3; }
                    int wrap(int x) { return secret(x); }
                    """,
                ),
                (
                    "main",
                    """
                    extern int wrap(int x);
                    int main() { print_int(wrap(5)); return 0; }
                    """,
                ),
            ]
        )
        before = run_program(program).behavior()
        report = HLOReport()
        site = find_site(program, "main", "wrap")
        perform_inline(program, program.proc("main"), site, report, 0)
        verify_program(program)  # would fail without promotion
        assert report.promotions == 1
        assert run_program(program).behavior() == before


class TestInlinePass:
    def test_pass_inlines_and_reports(self):
        program = build(SIMPLE)
        before = run_program(program).behavior()
        config = HLOConfig(budget_percent=400)
        budget = Budget(program, 400)
        report = HLOReport()
        # Use the final stage: on a tiny two-procedure program the
        # quadratic model makes one inline a large relative jump, so the
        # 20% first-stage allotment correctly rejects it.
        performed = inline_pass(
            program, config, budget, report, 3, None, AnalysisManager(program)
        )
        assert performed >= 1
        verify_program(program)
        assert run_program(program).behavior() == before

    def test_budget_zero_blocks_everything(self):
        program = build(SIMPLE)
        config = HLOConfig(budget_percent=0)
        budget = Budget(program, 0)
        report = HLOReport()
        assert inline_pass(
            program, config, budget, report, 0, None, AnalysisManager(program)
        ) == 0

    def test_budget_never_exceeded(self):
        program = build(SIMPLE)
        config = HLOConfig(budget_percent=50, reoptimize=False)
        budget = Budget(program, 50)
        report = HLOReport()
        inline_pass(
            program, config, budget, report, 0, None, AnalysisManager(program)
        )
        from repro.core import program_cost

        assert program_cost(program) <= budget.limit * 1.001

    def test_always_inline_bypasses_budget(self):
        program = build(
            [
                (
                    "m",
                    """
                    inline int must(int x) { return x * 2 + 1; }
                    int main() { return must(3); }
                    """,
                )
            ]
        )
        config = HLOConfig(budget_percent=0)
        budget = Budget(program, 0)
        report = HLOReport()
        performed = inline_pass(
            program, config, budget, report, 0, None, AnalysisManager(program)
        )
        assert performed == 1

    def test_bottom_up_cascade(self):
        # A -> B -> C: after the pass, A should contain C's work too,
        # because B <- C is performed before A <- B.
        program = build(
            [
                (
                    "m",
                    """
                    int c_fn(int x) { return x + 1; }
                    int b_fn(int x) { return c_fn(x) * 2; }
                    int a_fn(int x) { return b_fn(x) - 3; }
                    int main() { print_int(a_fn(10)); return 0; }
                    """,
                )
            ]
        )
        before = run_program(program).behavior()
        config = HLOConfig(budget_percent=2000)
        budget = Budget(program, 2000)
        report = HLOReport()
        inline_pass(
            program, config, budget, report, 3, None, AnalysisManager(program)
        )  # final stage: full budget
        verify_program(program)
        assert run_program(program).behavior() == before
        # main absorbed the chain: no calls to a_fn/b_fn/c_fn remain in main.
        callees = {
            i.callee
            for _b, _i, i in program.proc("main").call_sites()
            if isinstance(i, Call)
        }
        assert "a_fn" not in callees

    def test_stop_after_limits_transforms(self):
        program = build(SIMPLE)
        config = HLOConfig(budget_percent=2000, stop_after=1)
        budget = Budget(program, 2000)
        report = HLOReport()
        inline_pass(
            program, config, budget, report, 3, None, AnalysisManager(program)
        )
        assert report.inlines == 1
