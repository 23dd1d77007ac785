"""Interpreter: execution semantics, builtins, frames, errors."""

import pytest

from repro.interp import (
    CodePtr,
    CountingSink,
    ExecError,
    Interpreter,
    StepLimitExceeded,
    run_program,
)
from repro.ir import IRBuilder, Imm, Module, Program, Type

from ..conftest import run_main, single_proc_program


class TestExecution:
    def test_return_value_is_exit_code(self):
        program = single_proc_program(lambda b: b.ret(7))
        assert run_program(program).exit_code == 7

    def test_branching(self):
        def body(b):
            t = b.lt(b.const(1), b.const(2))
            yes, no = b.new_block(), b.new_block()
            b.branch(t, yes, no)
            b.set_block(yes)
            b.ret(10)
            b.set_block(no)
            b.ret(20)

        assert run_program(single_proc_program(body)).exit_code == 10

    def test_memory_roundtrip(self):
        def body(b):
            addr = b.alloca(4)
            b.store(b.binop("add", addr, 2), 77)
            value = b.load(b.binop("add", addr, 2))
            b.ret(value)

        assert run_program(single_proc_program(body)).exit_code == 77

    def test_globals_initialized(self):
        from repro.ir import GlobalVar

        mod = Module("m")
        mod.add_global(GlobalVar("g", 3, [5, 6]))
        b = IRBuilder(mod, "main")
        base = b.mov(b.glob("g"))
        v0 = b.load(base)
        v1 = b.load(b.add(base, 1))
        v2 = b.load(b.add(base, 2))
        b.ret(b.add(b.add(v0, v1), v2))
        assert run_program(Program([mod])).exit_code == 11

    def test_steps_counted(self):
        program = single_proc_program(lambda b: b.ret(0))
        assert run_program(program).steps == 1

    def test_step_limit(self):
        def body(b):
            loop = b.new_block()
            b.jump(loop)
            b.set_block(loop)
            b.jump(loop)

        with pytest.raises(StepLimitExceeded):
            run_program(single_proc_program(body), max_steps=100)

    def test_deep_recursion_overflows_cleanly(self):
        src = """
        int down(int n) { return down(n + 1); }
        int main() { return down(0); }
        """
        with pytest.raises(ExecError) as err:
            run_main(src, max_steps=10_000_000)
        assert "stack overflow" in str(err.value)


class TestCalls:
    def test_arity_mismatch_traps(self):
        mod = Module("m")
        callee = IRBuilder(mod, "f", [("a", Type.INT)])
        callee.ret(callee.reg("a"))
        b = IRBuilder(mod, "main")
        b.call("f", [1, 2])
        b.ret(0)
        with pytest.raises(ExecError):
            run_program(Program([mod]))

    def test_unresolved_external_traps(self):
        mod = Module("m")
        from repro.ir import Signature

        mod.declare_extern("mystery", Signature((), Type.INT))
        b = IRBuilder(mod, "main")
        r = b.call("mystery", [])
        b.ret(r)
        with pytest.raises(ExecError) as err:
            run_program(Program([mod]))
        assert "unresolved external" in str(err.value)

    def test_indirect_call_through_memory(self):
        src = """
        int f(int x) { return x + 1; }
        int slot;
        int main() { slot = &f; int g = slot; return g(41); }
        """
        assert run_main(src).exit_code == 42

    def test_icall_through_non_code_traps(self):
        def body(b):
            r = b.icall(123, [])
            b.ret(r)

        with pytest.raises(ExecError):
            run_program(single_proc_program(body))

    def test_code_pointer_equality(self):
        src = """
        int f(int x) { return x; }
        int g(int x) { return x; }
        int main() {
          int a = &f; int b = &f; int c = &g;
          print_int(a == b); print_int(a == c); print_int(a != c);
          return 0;
        }
        """
        assert run_main(src).output == [1, 0, 1]

    def test_code_pointer_arithmetic_traps(self):
        src = "int f() { return 0; } int main() { int p = &f; return p + 1; }"
        with pytest.raises(ExecError):
            run_main(src)


class TestBuiltins:
    def test_print_and_input(self):
        src = """
        int main() {
          print_int(input(0) + input(1));
          print_int(input(99));
          print_int(input_len());
          return 0;
        }
        """
        assert run_main(src, [3, 4]).output == [7, 0, 2]

    def test_exit_stops_program(self):
        src = "int main() { exit(5); print_int(1); return 0; }"
        result = run_main(src)
        assert result.exit_code == 5
        assert result.output == []

    def test_abs(self):
        assert run_main("int main() { return abs(-9) + abs(2); }").exit_code == 11

    def test_sbrk_allocates_distinct_regions(self):
        src = """
        int main() {
          int a = sbrk(4);
          int b = sbrk(4);
          a[0] = 1; b[0] = 2;
          print_int(a[0]); print_int(b[0]);
          print_int(b > a);
          return 0;
        }
        """
        assert run_main(src).output == [1, 2, 1]

    def test_print_type_checking(self):
        # The front end inserts conversions, so drive the builtin with a
        # raw float at the IR level to check the runtime's own guard.
        def body(b):
            b.call("print_int", [b.const(1.5)], dest=False)
            b.ret(0)

        with pytest.raises(ExecError):
            run_program(single_proc_program(body))


class TestEvents:
    def test_counting_sink_sees_everything(self):
        src = """
        int f(int x) { return x * 2; }
        int main() {
          int s = 0;
          for (int i = 0; i < 3; i++) s += f(i);
          print_int(s);
          return 0;
        }
        """
        from repro.frontend import compile_program

        sink = CountingSink()
        program = compile_program([("main", src)])
        result = run_program(program, sink=sink)
        assert sink.instrs == result.steps
        assert sink.calls == result.call_count
        assert sink.returns == 3  # f returns; main's return is the root
        assert sink.branches > 0
