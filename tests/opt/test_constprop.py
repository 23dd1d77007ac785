"""Constant propagation: folding, branch collapse, devirtualization."""

from repro.frontend import compile_module, compile_program
from repro.interp import run_program
from repro.ir import Branch, Call, ICall, Imm, Jump, Mov, Program, Reg
from repro.linker.toolchain import Toolchain
from repro.opt import constant_propagation, simplify_cfg

from ..conftest import single_proc_program


def optimize(program):
    for proc in program.all_procs():
        for _ in range(4):
            changed = constant_propagation(program, proc)
            changed |= simplify_cfg(program, proc)
            if not changed:
                break
    return program


def instrs_of(program, name="main"):
    return list(program.proc(name).instructions())


class TestFolding:
    def test_arith_chain_folds(self):
        def body(b):
            x = b.mov(7)
            y = b.add(x, 3)
            z = b.mul(y, 2)
            b.ret(z)

        program = optimize(single_proc_program(body))
        ret = program.proc("main").entry_block().terminator
        assert ret.value == Imm(20)

    def test_division_by_zero_not_folded(self):
        def body(b):
            z = b.div(10, 0)
            b.ret(z)

        program = optimize(single_proc_program(body))
        ops = [i for i in instrs_of(program) if getattr(i, "op", None) == "div"]
        assert ops, "trapping division must be preserved"

    def test_constant_branch_becomes_jump(self):
        def body(b):
            t = b.lt(1, 2)
            yes, no = b.new_block(), b.new_block()
            b.branch(t, yes, no)
            b.set_block(yes)
            b.ret(1)
            b.set_block(no)
            b.ret(0)

        program = optimize(single_proc_program(body))
        assert not any(isinstance(i, Branch) for i in instrs_of(program))
        assert run_program(program).exit_code == 1

    def test_state_merges_to_nac(self):
        def body(b):
            x = b.reg("x")
            yes, no, join = b.new_block(), b.new_block(), b.new_block()
            c = b.call("input", [0])
            b.branch(c, yes, no)
            b.set_block(yes)
            b.mov(1, x)
            b.jump(join)
            b.set_block(no)
            b.mov(2, x)
            b.jump(join)
            b.set_block(join)
            b.ret(b.add(x, 0))

        program = optimize(single_proc_program(body))
        # x is 1 or 2 depending on input: must not fold to a constant.
        assert run_program(program, [0]).exit_code == 2
        assert run_program(program, [1]).exit_code == 1

    def test_same_constant_on_both_paths_folds(self):
        def body(b):
            x = b.reg("x")
            yes, no, join = b.new_block(), b.new_block(), b.new_block()
            c = b.call("input", [0])
            b.branch(c, yes, no)
            b.set_block(yes)
            b.mov(5, x)
            b.jump(join)
            b.set_block(no)
            b.mov(5, x)
            b.jump(join)
            b.set_block(join)
            b.ret(x)

        program = optimize(single_proc_program(body))
        ret = [i for i in instrs_of(program) if i.is_terminator and hasattr(i, "value")]
        assert any(getattr(r, "value", None) == Imm(5) for r in ret)

    def test_funcref_comparison_folds(self):
        mod = compile_module(
            """
            int f(int x) { return x; }
            int main() {
              int a = &f;
              if (a == &f) return 1;
              return 0;
            }
            """,
            "m",
        )
        program = optimize(Program([mod]))
        assert run_program(program).exit_code == 1


class TestDevirtualization:
    def test_constant_icall_becomes_direct(self):
        mod = compile_module(
            """
            int target(int x) { return x + 1; }
            int main() {
              int f = &target;
              return f(41);
            }
            """,
            "m",
        )
        program = Program([mod])
        before = sum(isinstance(i, ICall) for i in instrs_of(program))
        assert before == 1
        optimize(program)
        assert sum(isinstance(i, ICall) for i in instrs_of(program)) == 0
        assert any(
            isinstance(i, Call) and i.callee == "target" for i in instrs_of(program)
        )
        assert run_program(program).exit_code == 42

    def test_site_id_survives_devirtualization(self):
        mod = compile_module(
            """
            int target(int x) { return x; }
            int main() { int f = &target; return f(1); }
            """,
            "m",
        )
        program = Program([mod])
        original = [i.site_id for i in instrs_of(program) if isinstance(i, ICall)]
        optimize(program)
        direct = [
            i.site_id
            for i in instrs_of(program)
            if isinstance(i, Call) and i.callee == "target"
        ]
        assert direct == original


def optimize_source(source):
    return optimize(Program([compile_module(source, "m")]))


class TestLoops:
    def test_induction_variable_does_not_fold(self):
        program = optimize_source(
            """
            int main() {
              int i = 0;
              while (i < input(0)) i = i + 1;
              return i;
            }
            """
        )
        test = next(i for i in instrs_of(program) if getattr(i, "op", None) == "lt")
        assert isinstance(test.lhs, Reg)  # i is 0 only on entry, then NAC
        assert run_program(program, [5], max_steps=10_000).exit_code == 5

    def test_constant_defined_before_the_loop_folds_in_its_body(self):
        program = optimize_source(
            """
            int n;
            int main() {
              int k = 3;
              int s = 0;
              n = input(0);
              while (n > 0) { s = s + k; n = n - 1; }
              return s;
            }
            """
        )
        adds = [i for i in instrs_of(program) if getattr(i, "op", None) == "add"]
        assert [(isinstance(a.lhs, Reg), a.rhs) for a in adds] == [(True, Imm(3))]
        assert run_program(program, [4], max_steps=10_000).exit_code == 12

    def test_constant_reset_in_the_body_meets_to_nac_at_the_header(self):
        program = optimize_source(
            """
            int n;
            int main() {
              int x = 1;
              n = input(0);
              while (n > 0) { print_int(x); x = 2; n = n - 1; }
              return x;
            }
            """
        )
        (show,) = [
            i for i in instrs_of(program)
            if isinstance(i, Call) and i.callee == "print_int"
        ]
        assert isinstance(show.args[0], Reg)  # 1 on entry, 2 on the back edge
        result = run_program(program, [3], max_steps=10_000)
        assert (result.output, result.exit_code) == ([1, 2, 2], 2)


def copy_chain(n):
    """A loop that carries a chain of ``n`` copies: a1 = a2; ...; an = in."""
    decls = "".join("  int a{} = 0;\n".format(k) for k in range(1, n + 1))
    copies = "".join("    a{} = a{};\n".format(k, k + 1) for k in range(1, n))
    return [(
        "m",
        "int main() {\n" + decls + "  int i = 0;\n  while (i < input(0)) {\n"
        + copies + "    a{} = input(i) + 1;\n".format(n)
        + "    i = i + 1;\n  }\n  print_int(a1);\n  return 0;\n}\n",
    )]


# A temporary defined only in the loop body reaches the header as a NaN
# each round, a fresh Imm(nan) that never equals the last one.
NAN_LOOP = [(
    "m",
    """
    int main() {
      float big = 1e308 * 10.0;
      float d;
      int i = 0;
      int seen = 0;
      while (i < input(0)) {
        if (d != d) seen = seen + 1;
        d = big - big;
        i = i + 1;
      }
      print_int(seen);
      return 0;
    }
    """,
)]


class TestConvergence:
    def test_a_copy_chain_longer_than_the_round_bound_is_not_rewritten(self):
        # 60 copies need about 60 rounds: the dataflow stops at its bound
        # with optimistic facts, which must not reach the rewrite.
        sources = copy_chain(60)
        inputs = [65, 1, 2, 3, 4, 5]
        expected = run_program(compile_program(sources), inputs, engine="reference")
        assert expected.output == [6]
        build = Toolchain(sources).build("c")
        assert run_program(build.program, inputs).output == expected.output

        program = compile_program(sources)
        main = program.proc("main")
        before = str(main)
        assert not constant_propagation(program, main)
        assert str(main) == before

    def test_a_nan_around_a_loop_terminates_and_keeps_behaviour(self):
        program = compile_program(NAN_LOOP)
        main = program.proc("main")
        before = str(main)
        assert not constant_propagation(program, main)  # it gives up at the bound
        assert str(main) == before

        expected = run_program(compile_program(NAN_LOOP), [4], engine="reference")
        assert expected.output == [3]
        build = Toolchain(NAN_LOOP).build("c")
        assert run_program(build.program, [4]).output == expected.output
