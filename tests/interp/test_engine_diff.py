"""Differential suite: every optimized engine must be observably identical.

Every test runs the same program under each engine in
``OPTIMIZED_ENGINES`` (the pre-decoded ``fast`` engine) against
``engine="reference"`` (via :mod:`repro.interp.diff`) and asserts the
complete observable outcome matches: Result fields including every
counter, the RecordingSink event stream, and — on trapping or
step-limited runs — the exception type and message.  Coverage comes
from the whole workload suite, seeded generator programs (varargs,
indirect calls through dispatchers, recursion, dynamic alloca), and
hand-written programs that pin the awkward paths: traps mid-block,
``exit()`` unwinding, step-limit expiry at arbitrary points.
"""

import textwrap

import pytest

from repro.frontend import compile_program
from repro.ir import parse_program
from repro.interp.diff import OPTIMIZED_ENGINES, assert_identical
from repro.workloads.generator import generate_sources
from repro.workloads.suite import get_workload, workload_names

GENERATOR_SEEDS = range(50)


@pytest.fixture(params=OPTIMIZED_ENGINES)
def engine(request):
    return request.param


class TestWorkloadSuite:
    @pytest.mark.parametrize("name", workload_names())
    def test_workload_identical(self, name, engine):
        workload = get_workload(name)
        assert_identical(
            workload.compile(), workload.ref_input, label=name, engine=engine,
        )


class TestGeneratedPrograms:
    @pytest.mark.parametrize("seed", GENERATOR_SEEDS)
    def test_generated_identical(self, seed, engine):
        program = compile_program(generate_sources(seed))
        assert_identical(
            program, [seed, seed * 7 + 3, seed % 5],
            label="generator seed {}".format(seed), engine=engine,
        )

    @pytest.mark.parametrize("seed", [3, 11, 27])
    def test_generated_under_step_limits(self, seed, engine):
        # The limit lands at arbitrary points: mid straight-line
        # segment, on a block boundary, inside a callee.  Both engines
        # must raise StepLimitExceeded with the same message (same
        # procedure, block, and instruction index) — or both finish.
        program = compile_program(generate_sources(seed))
        for max_steps in (1, 2, 3, 17, 100, 1001):
            assert_identical(
                program, [seed], max_steps=max_steps, engine=engine,
                label="seed {} max_steps {}".format(seed, max_steps),
            )


class TestHandWrittenPaths:
    def run_sources(self, source, inputs=(), max_steps=2_000_000,
                    label=None, engine="fast"):
        program = compile_program([("main", source)])
        assert_identical(
            program, inputs, max_steps=max_steps, label=label, engine=engine,
        )

    def test_varargs(self, engine):
        self.run_sources(
            """
            int total(int base, ...) {
              int acc = base;
              for (int k = 0; k < va_count(); k++) acc += va_arg(k);
              return acc;
            }
            int main() {
              print_int(total(1));
              print_int(total(1, 2, 3));
              print_int(total(10, 20, 30, 40, 50));
              return total(5, 6);
            }
            """,
            engine=engine, label="varargs",
        )

    def test_indirect_calls(self, engine):
        self.run_sources(
            """
            int inc(int x) { return x + 1; }
            int dbl(int x) { return x * 2; }
            int handler;
            int main() {
              handler = inc;
              int a = handler(4);
              handler = dbl;
              int b = handler(4);
              print_int(a);
              print_int(b);
              return a + b;
            }
            """,
            engine=engine, label="indirect calls",
        )

    def test_exit_mid_call_chain(self, engine):
        self.run_sources(
            """
            int helper(int x) {
              if (x > 3) exit(42);
              return x;
            }
            int main() {
              int i = 0;
              while (i < 10) { print_int(helper(i)); i = i + 1; }
              return 0;
            }
            """,
            engine=engine, label="exit unwind",
        )

    def test_division_by_zero_trap(self, engine):
        self.run_sources(
            "int main() { int d = input(0); return 7 / d; }",
            inputs=[0], engine=engine, label="div by zero",
        )

    def test_division_by_zero_mid_segment_counts_steps(self, engine):
        # The division traps with more straight-line work after it in
        # its block: the fast engine must count steps through the
        # faulting instruction only, like the reference loop.
        self.run_sources(
            """
            int main() {
              int a = input(0);
              int c = a * 3 + 5;
              int d = c / a;
              int e = d + c;
              print_int(e * 2 + d);
              return 0;
            }
            """,
            inputs=[0], engine=engine, label="div by zero mid-segment",
        )

    def test_unset_register_read_mid_segment(self, engine):
        program = parse_program(textwrap.dedent(
            """\
            module "m"
            proc @main() -> int global {
            entry:
              %a = mov 1
              %b = add %a, 2
              %c = add %never, %b
              %d = mul %c, 3
              %e = sub %d, 1
              ret %e
            }
            """
        ))
        assert_identical(program, engine=engine, label="unset register mid-segment")

    def test_mod_by_zero_trap(self, engine):
        self.run_sources(
            "int main() { int d = input(0); return 7 % d; }",
            inputs=[0], engine=engine, label="mod by zero",
        )

    def test_negative_address_trap(self, engine):
        self.run_sources(
            """
            int main() {
              int p = 0 - 5;
              p[0] = 1;
              return 0;
            }
            """,
            engine=engine, label="negative address store",
        )

    def test_call_stack_overflow_trap(self, engine):
        # Unbounded recursion: the fast engine's inlined frame push and
        # the reference interpreter must trap with the same message at
        # the same depth.
        self.run_sources(
            """
            int spin(int x) { return spin(x + 1); }
            int main() { return spin(0); }
            """,
            engine=engine, label="call stack overflow",
        )

    def test_step_limit_in_tight_loop(self, engine):
        source = """
        int main() {
          int acc = 0;
          for (int i = 0; i < 100000; i++) acc = acc + i;
          return acc % 251;
        }
        """
        for max_steps in (1, 5, 6, 7, 123, 1000):
            self.run_sources(
                source, max_steps=max_steps, engine=engine,
                label="loop max_steps {}".format(max_steps),
            )

    def test_float_arithmetic_and_output(self, engine):
        self.run_sources(
            """
            int main() {
              float a = 1.5;
              float b = a * 2.0 + 0.25;
              print_flt(b);
              print_flt(b / 2.0);
              return 0;
            }
            """,
            engine=engine, label="float path",
        )
