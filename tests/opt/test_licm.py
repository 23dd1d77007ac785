"""Loop-invariant code motion."""

from hypothesis import given, settings, strategies as st

from repro.frontend import compile_program
from repro.interp import run_program
from repro.ir import BinOp, verify_program
from repro.opt import licm, optimize_program
from repro.workloads.generator import generate_sources

from ..conftest import single_proc_program


def loop_body_op_count(program, name, op):
    """Count `op` instructions in blocks that belong to loops."""
    from repro.analysis import find_loops

    proc = program.proc(name)
    body_labels = set()
    for loop in find_loops(proc):
        body_labels |= loop.body
    return sum(
        1
        for label in body_labels
        for instr in proc.blocks[label].instrs
        if getattr(instr, "op", None) == op
    )


class TestHoisting:
    def loopy(self):
        def body(b):
            n = b.call("input", [0])
            k = b.call("input", [1])
            s = b.reg("s")
            i = b.reg("i")
            b.mov(0, s)
            b.mov(0, i)
            head, body_b, done = b.new_block(), b.new_block(), b.new_block()
            b.jump(head)
            b.set_block(head)
            t = b.lt(i, n)
            b.branch(t, body_b, done)
            b.set_block(body_b)
            inv = b.mul(k, 3)  # invariant: k never changes in the loop
            step = b.add(inv, 1)  # invariant chain
            b.binop("add", s, step, dest=s)
            b.binop("add", i, 1, dest=i)
            b.jump(head)
            b.set_block(done)
            b.ret(s)

        return single_proc_program(body)

    def test_invariant_chain_hoisted(self):
        program = self.loopy()
        before = run_program(program, [5, 7]).behavior()
        assert licm(program, program.proc("main"))
        verify_program(program)
        assert run_program(program, [5, 7]).behavior() == before
        # The multiply left the loop body.
        assert loop_body_op_count(program, "main", "mul") == 0

    def test_self_loop_hoisted(self):
        # A one-block loop: its only back edge goes from the block to
        # itself, so the no-loop shortcut must count a self edge.
        def body(b):
            n = b.call("input", [0])
            k = b.call("input", [1])
            s = b.reg("s")
            i = b.reg("i")
            b.mov(0, s)
            b.mov(0, i)
            loop, done = b.new_block(), b.new_block()
            b.jump(loop)
            b.set_block(loop)
            inv = b.mul(k, 3)
            b.binop("add", s, inv, dest=s)
            b.binop("add", i, 1, dest=i)
            t = b.lt(i, n)
            b.branch(t, loop, done)
            b.set_block(done)
            b.ret(s)

        program = single_proc_program(body)
        before = run_program(program, [5, 7]).behavior()
        assert licm(program, program.proc("main"))
        verify_program(program)
        assert loop_body_op_count(program, "main", "mul") == 0
        assert run_program(program, [5, 7]).behavior() == before

    def test_zero_trip_loop_still_correct(self):
        program = self.loopy()
        licm(program, program.proc("main"))
        # n = 0: the loop body never runs; hoisted code must be benign.
        assert run_program(program, [0, 9]).exit_code == 0

    def test_variant_values_not_hoisted(self):
        def body(b):
            n = b.call("input", [0])
            s = b.reg("s")
            i = b.reg("i")
            b.mov(0, s)
            b.mov(0, i)
            head, body_b, done = b.new_block(), b.new_block(), b.new_block()
            b.jump(head)
            b.set_block(head)
            t = b.lt(i, n)
            b.branch(t, body_b, done)
            b.set_block(body_b)
            sq = b.mul(i, i)  # depends on i: NOT invariant
            b.binop("add", s, sq, dest=s)
            b.binop("add", i, 1, dest=i)
            b.jump(head)
            b.set_block(done)
            b.ret(s)

        program = single_proc_program(body)
        licm(program, program.proc("main"))
        assert loop_body_op_count(program, "main", "mul") == 1
        assert run_program(program, [4]).exit_code == 0 + 1 + 4 + 9

    def test_trapping_division_not_hoisted(self):
        def body(b):
            n = b.call("input", [0])
            d = b.call("input", [1])
            s = b.reg("s")
            i = b.reg("i")
            b.mov(0, s)
            b.mov(0, i)
            head, body_b, done = b.new_block(), b.new_block(), b.new_block()
            b.jump(head)
            b.set_block(head)
            t = b.lt(i, n)
            b.branch(t, body_b, done)
            b.set_block(body_b)
            q = b.div(100, d)  # traps when d == 0: must stay guarded
            b.binop("add", s, q, dest=s)
            b.binop("add", i, 1, dest=i)
            b.jump(head)
            b.set_block(done)
            b.ret(s)

        program = single_proc_program(body)
        licm(program, program.proc("main"))
        assert loop_body_op_count(program, "main", "div") == 1
        # n=0, d=0: no iteration, no trap — before and after LICM.
        assert run_program(program, [0, 0]).exit_code == 0

    def test_minic_loop(self):
        sources = [
            (
                "m",
                """
                int main() {
                  int n = input(0);
                  int k = input(1);
                  int s = 0;
                  for (int i = 0; i < n; i++) {
                    s += k * k + 3;
                  }
                  print_int(s);
                  return 0;
                }
                """,
            )
        ]
        program = compile_program(sources)
        before = run_program(program, [6, 4]).behavior()
        optimize_program(program)
        verify_program(program)
        assert run_program(program, [6, 4]).behavior() == before
        assert loop_body_op_count(program, "main", "mul") == 0

    def test_idempotent(self):
        program = self.loopy()
        licm(program, program.proc("main"))
        assert not licm(program, program.proc("main"))


class TestProperties:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=200_000))
    def test_licm_preserves_behavior(self, seed):
        sources = generate_sources(seed)
        reference = run_program(compile_program(sources), max_steps=500_000)
        program = compile_program(sources)
        for proc in list(program.all_procs()):
            licm(program, proc)
        verify_program(program)
        result = run_program(program, max_steps=1_000_000)
        assert result.behavior() == reference.behavior()
