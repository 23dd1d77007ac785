"""Lowering semantics, checked by executing the compiled IR."""

import pytest

from repro.frontend import CompileError, compile_program
from repro.ir.printer import print_proc, print_program
from repro.ir.procedure import Procedure
from repro.workloads.generator import generate_sources
from repro.workloads.suite import all_workloads

from ..conftest import run_main


def outputs(source, inputs=()):
    result = run_main(source, inputs)
    return list(result.output)


def exit_code(source, inputs=()):
    return run_main(source, inputs).exit_code


class TestArithmetic:
    def test_basic_expression(self):
        assert outputs("int main() { print_int(2 + 3 * 4 - 1); return 0; }") == [13]

    def test_c_division_semantics(self):
        src = "int main() { print_int(-7 / 2); print_int(-7 % 2); return 0; }"
        assert outputs(src) == [-3, -1]

    def test_bitwise_and_shifts(self):
        src = "int main() { print_int((5 & 3) | (1 << 4)); print_int(-8 >> 1); return 0; }"
        assert outputs(src) == [17, -4]

    def test_unary_operators(self):
        src = "int main() { print_int(-5); print_int(!5); print_int(!0); print_int(~0); return 0; }"
        assert outputs(src) == [-5, 0, 1, -1]

    def test_comparisons(self):
        src = "int main() { print_int(3 < 5); print_int(5 <= 4); print_int(4 == 4); return 0; }"
        assert outputs(src) == [1, 0, 1]

    def test_char_literals(self):
        assert outputs("int main() { print_int('A'); return 0; }") == [65]


class TestControlFlow:
    def test_if_else(self):
        src = """
        int classify(int x) {
          if (x < 0) return -1;
          else if (x == 0) return 0;
          return 1;
        }
        int main() { print_int(classify(-5)); print_int(classify(0)); print_int(classify(9)); return 0; }
        """
        assert outputs(src) == [-1, 0, 1]

    def test_while_and_break_continue(self):
        src = """
        int main() {
          int i = 0; int sum = 0;
          while (1) {
            i = i + 1;
            if (i > 10) break;
            if (i % 2) continue;
            sum = sum + i;
          }
          print_int(sum);
          return 0;
        }
        """
        assert outputs(src) == [2 + 4 + 6 + 8 + 10]

    def test_do_while_runs_once(self):
        src = "int main() { int n = 0; do { n++; } while (0); print_int(n); return 0; }"
        assert outputs(src) == [1]

    def test_for_with_decl_scope(self):
        src = """
        int main() {
          int total = 0;
          for (int i = 0; i < 4; i++) total += i;
          int i = 100;
          print_int(total + i);
          return 0;
        }
        """
        assert outputs(src) == [106]

    def test_nested_loop_break_targets_inner(self):
        src = """
        int main() {
          int count = 0;
          for (int i = 0; i < 3; i++) {
            for (int j = 0; j < 10; j++) {
              if (j == 2) break;
              count++;
            }
          }
          print_int(count);
          return 0;
        }
        """
        assert outputs(src) == [6]

    def test_short_circuit_effects(self):
        src = """
        int g = 0;
        int bump() { g = g + 1; return 1; }
        int main() {
          int a = 0 && bump();
          int b = 1 || bump();
          print_int(g); print_int(a); print_int(b);
          int c = 1 && bump();
          print_int(g); print_int(c);
          return 0;
        }
        """
        assert outputs(src) == [0, 0, 1, 1, 1]

    def test_ternary(self):
        src = "int main() { int x = 5; print_int(x > 3 ? x * 2 : -1); return 0; }"
        assert outputs(src) == [10]

    def test_missing_return_yields_zero(self):
        assert exit_code("int main() { int x = 5; }") == 0


class TestVariablesAndScope:
    def test_shadowing(self):
        src = """
        int x = 1;
        int main() {
          print_int(x);
          int x = 2;
          print_int(x);
          { int x = 3; print_int(x); }
          print_int(x);
          return 0;
        }
        """
        assert outputs(src) == [1, 2, 3, 2]

    def test_compound_assignment(self):
        src = """
        int main() {
          int a = 10;
          a += 5; print_int(a);
          a -= 3; print_int(a);
          a *= 2; print_int(a);
          a /= 4; print_int(a);
          a %= 4; print_int(a);
          a ^= 3; print_int(a);
          return 0;
        }
        """
        assert outputs(src) == [15, 12, 24, 6, 2, 1]

    def test_inc_dec_value_semantics(self):
        src = """
        int main() {
          int a = 5;
          print_int(a++); print_int(a);
          print_int(++a); print_int(a);
          print_int(a--); print_int(--a);
          return 0;
        }
        """
        assert outputs(src) == [5, 6, 7, 7, 7, 5]

    def test_uninitialized_local_is_zero(self):
        assert outputs("int main() { int x; print_int(x); return 0; }") == [0]


class TestMemory:
    def test_global_arrays(self):
        src = """
        int a[5] = {10, 20, 30};
        int main() {
          print_int(a[0] + a[1] + a[2] + a[3]);
          a[4] = 99;
          print_int(a[4]);
          return 0;
        }
        """
        assert outputs(src) == [60, 99]

    def test_local_arrays(self):
        src = """
        int main() {
          int buf[8];
          for (int i = 0; i < 8; i++) buf[i] = i * i;
          print_int(buf[7]);
          return 0;
        }
        """
        assert outputs(src) == [49]

    def test_pointers_and_deref(self):
        src = """
        int data[4] = {1, 2, 3, 4};
        int main() {
          int p = &data[1];
          print_int(*p);
          *p = 20;
          print_int(data[1]);
          print_int(p[1]);
          return 0;
        }
        """
        assert outputs(src) == [2, 20, 3]

    def test_global_scalar_address(self):
        src = """
        int g = 7;
        int main() {
          int p = &g;
          *p = 42;
          print_int(g);
          return 0;
        }
        """
        assert outputs(src) == [42]

    def test_array_inc_dec_through_memory(self):
        src = """
        int a[2] = {5, 5};
        int main() { a[0]++; --a[1]; print_int(a[0]); print_int(a[1]); return 0; }
        """
        assert outputs(src) == [6, 4]

    def test_dynamic_alloca(self):
        src = """
        int main() {
          int n = input(0);
          int buf = alloca(n);
          for (int i = 0; i < n; i++) buf[i] = i + 1;
          int s = 0;
          for (int i = 0; i < n; i++) s += buf[i];
          print_int(s);
          return 0;
        }
        """
        assert outputs(src, [5]) == [15]

    def test_address_of_register_local_rejected(self):
        with pytest.raises(CompileError):
            run_main("int main() { int x = 1; int p = &x; return 0; }")


class TestFunctions:
    def test_recursion(self):
        src = """
        int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }
        int main() { print_int(fact(6)); return 0; }
        """
        assert outputs(src) == [720]

    def test_mutual_recursion(self):
        src = """
        int is_odd(int n);
        int is_even(int n) { if (n == 0) return 1; return is_odd(n - 1); }
        int is_odd(int n) { if (n == 0) return 0; return is_even(n - 1); }
        int main() { print_int(is_even(10)); print_int(is_odd(7)); return 0; }
        """
        assert outputs(src) == [1, 1]

    def test_function_pointers(self):
        src = """
        int dbl(int x) { return x * 2; }
        int neg(int x) { return -x; }
        int apply(int f, int x) { return f(x); }
        int main() {
          print_int(apply(&dbl, 21));
          print_int(apply(&neg, 5));
          int table[2];
          table[0] = &dbl; table[1] = &neg;
          print_int(apply(table[1], 8));
          return 0;
        }
        """
        assert outputs(src) == [42, -5, -8]

    def test_function_name_decays_to_pointer(self):
        src = """
        int inc(int x) { return x + 1; }
        int apply(int f, int x) { return f(x); }
        int main() { print_int(apply(inc, 1)); return 0; }
        """
        assert outputs(src) == [2]

    def test_varargs(self):
        src = """
        int total(int n, ...) {
          int sum = n;
          for (int i = 0; i < va_count(); i++) sum += va_arg(i);
          return sum;
        }
        int main() {
          print_int(total(1));
          print_int(total(1, 2, 3));
          return 0;
        }
        """
        assert outputs(src) == [1, 6]

    def test_void_function(self):
        src = """
        int g = 0;
        void set(int v) { g = v; return; }
        int main() { set(9); print_int(g); return 0; }
        """
        assert outputs(src) == [9]

    def test_void_value_use_rejected(self):
        with pytest.raises(CompileError):
            run_main("void f() { } int main() { int x = f(); return 0; }")

    def test_arity_mismatch_rejected(self):
        with pytest.raises(CompileError):
            run_main("int f(int a) { return a; } int main() { return f(1, 2); }")


class TestFloats:
    def test_float_arithmetic(self):
        src = """
        int main() {
          float f = 1.5;
          f = f * 2.0 + 0.25;
          print_flt(f);
          return 0;
        }
        """
        assert outputs(src) == [3.25]

    def test_implicit_conversions(self):
        src = """
        int main() {
          float f = 3;        // int -> float
          f = f + 1;          // mixed promotes
          int i = f * 2.0;    // float -> int truncates
          print_flt(f); print_int(i);
          return 0;
        }
        """
        assert outputs(src) == [4.0, 8]

    def test_float_condition(self):
        src = """
        int main() {
          float f = 0.5;
          if (f) print_int(1);
          if (!f) print_int(2); else print_int(3);
          while (f) { f = f - 0.5; }
          print_flt(f);
          return 0;
        }
        """
        assert outputs(src) == [1, 3, 0.0]

    def test_float_return_conversion(self):
        src = """
        float half(int x) { return x / 2; }
        int main() { print_flt(half(7)); return 0; }
        """
        assert outputs(src) == [3.0]

    def test_int_op_on_float_rejected(self):
        with pytest.raises(CompileError):
            run_main("int main() { float f = 1.0; int x = f % 2.0; return 0; }")


class TestModules:
    def test_cross_module_statics_independent(self):
        mod_a = "static int secret() { return 1; } int get_a() { return secret(); }"
        mod_b = "static int secret() { return 2; } int get_b() { return secret(); }"
        main = """
        extern int get_a(); extern int get_b();
        int main() { print_int(get_a() * 10 + get_b()); return 0; }
        """
        from ..conftest import compile_and_run

        result = compile_and_run([("a", mod_a), ("b", mod_b), ("main", main)])
        assert result.output == [12]

    def test_unresolved_extern_rejected(self):
        with pytest.raises(CompileError):
            compile_program([("main", "extern int nope(); int main() { return nope(); }")])

    def test_missing_main_rejected(self):
        with pytest.raises(CompileError):
            compile_program([("lib", "int f() { return 0; }")])

    def test_signature_mismatch_across_modules(self):
        with pytest.raises(CompileError):
            compile_program(
                [
                    ("lib", "int f(int a, int b) { return a + b; }"),
                    ("main", "extern int f(int a); int main() { return f(1); }"),
                ]
            )

    def test_cross_module_globals(self):
        from ..conftest import compile_and_run

        result = compile_and_run(
            [
                ("data", "int shared[4] = {1, 2, 3, 4};"),
                (
                    "main",
                    "extern int shared[4];\n"
                    "int main() { print_int(shared[0] + shared[3]); return 0; }",
                ),
            ]
        )
        assert result.output == [5]


class TestRegisterNames:
    """Lowering names a fresh register from the names the procedure
    defines so far, without rescanning the body."""

    def test_name_of_a_dropped_instruction_is_reused(self):
        # ``a1`` is dead code after a return: its ``mov`` is dropped, so
        # the candidate ``v_a11`` it drew stays free, and ``a`` later
        # draws the same candidate.
        adds = " ".join("s = s + {};".format(i) for i in range(9))
        src = (
            "int f(int x) { int s = 0; if (x) { return 1; int a1 = 3; } "
            + adds
            + " int a = 13; return a + s; }"
            " int main() { return f(1); }"
        )
        text = print_proc(compile_program([("m", src)]).proc("f"))
        assert "%v_a11 = mov 13" in text
        assert "v_a12" not in text

    def test_programs_match_lowering_with_a_scan_per_register(self, monkeypatch):
        programs = [list(w.sources) for w in all_workloads()]
        programs += [generate_sources(seed) for seed in range(4)]
        fast = [print_program(compile_program(sources)) for sources in programs]

        scanning_new_reg = Procedure.new_reg

        def new_reg(self, hint="t", existing=None):
            return scanning_new_reg(self, hint)

        monkeypatch.setattr(Procedure, "new_reg", new_reg)
        assert fast == [print_program(compile_program(s)) for s in programs]
