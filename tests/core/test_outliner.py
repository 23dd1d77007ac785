"""Aggressive outlining (the paper's Section 5 extension).

Tests that need other thresholds patch ``outliner``'s module constants,
which the pass reads at call time.
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import outliner
from repro.core import (
    HLOConfig,
    HLOReport,
    find_outline_candidates,
    outline_block,
    outline_pass,
    run_hlo,
)
from repro.core.budget import program_cost
from repro.frontend import compile_program
from repro.interp import run_program
from repro.ir import verify_program
from repro.profile import annotate_program, instrument_program, ProfileDatabase
from repro.workloads.generator import generate_sources

# A hot loop with a big cold error path: the outlining poster child.
COLDPATH = [
    (
        "m",
        """
        int g_err = 0;

        int process(int v) {
          if (v < 0) {
            // Cold error handling: big, rarely executed.
            int code = v * v + 7;
            code = code % 1000;
            g_err = g_err + code;
            g_err = g_err % 100003;
            code = code + g_err;
            print_int(code);
            return -code;
          }
          return v * 2 + 1;
        }

        int main() {
          int total = 0;
          for (int i = 0; i < 40; i++) total += process(i);
          print_int(total);
          return total % 31;
        }
        """,
    )
]


def trained_program():
    """COLDPATH with measured counts (the cold arm has count 0)."""
    program = compile_program(COLDPATH)
    probe_map = instrument_program(program)
    result = run_program(program)
    db = ProfileDatabase.from_training_run(program, probe_map, result.probe_counts)
    fresh = compile_program(COLDPATH)
    annotate_program(fresh, db)
    return fresh


class TestCandidates:
    def test_cold_block_found_with_profile(self):
        program = trained_program()
        candidates = find_outline_candidates(program.proc("process"))
        assert candidates
        labels = {c.label for c in candidates}
        assert any("then" in l for l in labels)

    def test_hot_blocks_not_candidates(self):
        program = trained_program()
        candidates = find_outline_candidates(program.proc("main"))
        hot_labels = {c.label for c in candidates}
        body_labels = {l for l in program.proc("main").blocks if "body" in l}
        assert not (hot_labels & body_labels)

    def test_static_coldness_without_profile(self, monkeypatch):
        monkeypatch.setattr(outliner, "COLD_RATIO", 0.6)
        program = compile_program(COLDPATH)
        candidates = find_outline_candidates(program.proc("process"))
        assert candidates  # the branch arm is statically colder than entry

    def test_min_size_respected(self, monkeypatch):
        monkeypatch.setattr(outliner, "MIN_BLOCK_SIZE", 10_000)
        program = trained_program()
        candidates = find_outline_candidates(program.proc("process"))
        assert candidates == []

    def test_entry_never_outlined(self, monkeypatch):
        monkeypatch.setattr(outliner, "COLD_RATIO", 1.0)
        monkeypatch.setattr(outliner, "MIN_BLOCK_SIZE", 0)
        program = trained_program()
        for proc in program.all_procs():
            for c in find_outline_candidates(proc):
                assert c.label != proc.entry

    def test_varargs_procs_skipped(self, monkeypatch):
        monkeypatch.setattr(outliner, "COLD_RATIO", 1.0)
        program = compile_program(
            [
                (
                    "m",
                    """
                    int v(int n, ...) {
                      if (n < 0) {
                        int a = va_arg(0); int b = va_arg(1);
                        int c = a + b; int d = c * 3;
                        return d;
                      }
                      return n;
                    }
                    int main() { return v(1, 2, 3); }
                    """,
                )
            ]
        )
        assert find_outline_candidates(program.proc("v")) == []

    def test_alloca_blocks_skipped(self, monkeypatch):
        monkeypatch.setattr(outliner, "COLD_RATIO", 1.0)
        monkeypatch.setattr(outliner, "MIN_BLOCK_SIZE", 0)
        program = compile_program(
            [
                (
                    "m",
                    """
                    int f(int n) {
                      if (n < 0) {
                        int buf[4];
                        buf[0] = n; buf[1] = n * 2;
                        return buf[0] + buf[1];
                      }
                      return n;
                    }
                    int main() { return f(5); }
                    """,
                )
            ]
        )
        # The alloca is hoisted to the entry (never a candidate), and the
        # cold arm itself has no alloca, so this just documents the rule:
        for c in find_outline_candidates(program.proc("f")):
            block = program.proc("f").blocks[c.label]
            from repro.ir import Alloca

            assert not any(isinstance(i, Alloca) for i in block.instrs)


class TestTransform:
    def test_outline_preserves_behavior(self):
        program = trained_program()
        reference = run_program(program).behavior()
        report = HLOReport()
        performed = outline_pass(program, report)
        assert performed >= 1
        assert report.outlines == performed
        verify_program(program)
        assert run_program(program).behavior() == reference

    def test_cold_path_still_works_when_taken(self, monkeypatch):
        monkeypatch.setattr(outliner, "COLD_RATIO", 0.6)
        sources = [
            (
                "m",
                """
                int process(int v) {
                  if (v < 0) {
                    int code = v * v + 7;
                    code = code % 1000;
                    code = code * 3 + 1;
                    print_int(code);
                    return -code;
                  }
                  return v * 2 + 1;
                }
                int main() {
                  print_int(process(input(0)));
                  return 0;
                }
                """,
            )
        ]
        program = compile_program(sources)
        cold_ref = run_program(program, [-5]).behavior()
        hot_ref = run_program(program, [5]).behavior()
        outline_pass(program, HLOReport())
        verify_program(program)
        assert run_program(program, [-5]).behavior() == cold_ref
        assert run_program(program, [5]).behavior() == hot_ref

    def test_outlining_reduces_quadratic_cost(self):
        program = trained_program()
        before = program_cost(program)
        performed = outline_pass(program, HLOReport())
        assert performed >= 1
        assert program_cost(program) < before

    def test_outlined_names_fresh(self):
        program = trained_program()
        outline_pass(program, report := HLOReport())
        names = [p.name for p in program.all_procs()]
        assert len(names) == len(set(names))
        assert all(program.proc(n) is not None for n in report.outlined_procs)


class TestHLOIntegration:
    def test_hlo_with_outlining_preserves_behavior(self):
        program = trained_program()
        reference = run_program(program).behavior()
        report = run_hlo(
            program,
            HLOConfig(budget_percent=400, enable_outlining=True),
        )
        verify_program(program)
        assert run_program(program).behavior() == reference
        assert report.outlines >= 1

    def test_outlining_off_by_default(self):
        program = trained_program()
        report = run_hlo(program, HLOConfig(budget_percent=400))
        assert report.outlines == 0

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_property_outline_then_hlo_preserves_behavior(self, seed):
        sources = generate_sources(seed)
        reference = run_program(compile_program(sources), max_steps=500_000)
        program = compile_program(sources)
        with mock.patch.object(outliner, "COLD_RATIO", 0.6), \
                mock.patch.object(outliner, "MIN_BLOCK_SIZE", 2):
            run_hlo(program, HLOConfig(budget_percent=400, enable_outlining=True))
        verify_program(program)
        result = run_program(program, max_steps=3_000_000)
        assert result.behavior() == reference.behavior()
