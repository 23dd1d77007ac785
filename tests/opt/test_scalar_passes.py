"""Copy propagation, CSE, DCE, peephole, simplify-CFG."""

from repro.interp import run_program
from repro.ir import (
    BinOp,
    Branch,
    Imm,
    Jump,
    Load,
    Mov,
    Reg,
    Store,
)
from repro.opt import (
    copy_propagation,
    dead_code_elimination,
    liveness,
    local_cse,
    peephole,
    simplify_cfg,
)

from ..conftest import single_proc_program


def count(program, cls, name="main"):
    return sum(isinstance(i, cls) for i in program.proc(name).instructions())


class TestCopyProp:
    def test_single_def_forwarding(self):
        def body(b):
            x = b.call("input", [0])
            y = b.mov(x)
            z = b.mov(y)
            b.ret(b.add(z, 1))

        program = single_proc_program(body)
        changed = copy_propagation(program, program.proc("main"))
        assert changed
        add = next(i for i in program.proc("main").instructions() if isinstance(i, BinOp))
        # The add now reads the original input register through the chain.
        assert run_program(program, [41]).exit_code == 42

    def test_redefined_source_not_forwarded_globally(self):
        def body(b):
            x = b.reg("x")
            b.mov(1, x)
            y = b.mov(x)  # y = 1 here
            b.mov(2, x)  # x redefined
            b.ret(y)  # must still be 1

        program = single_proc_program(body)
        copy_propagation(program, program.proc("main"))
        assert run_program(program).exit_code == 1

    def test_local_forwarding_within_block(self):
        def body(b):
            v = b.call("input", [0])
            c = b.mov(v)
            b.ret(b.add(c, c))

        program = single_proc_program(body)
        copy_propagation(program, program.proc("main"))
        assert run_program(program, [5]).exit_code == 10


class TestCSE:
    def test_repeated_expression_reused(self):
        def body(b):
            x = b.call("input", [0])
            a = b.mul(x, x)
            bb = b.mul(x, x)
            b.ret(b.add(a, bb))

        program = single_proc_program(body)
        assert local_cse(program, program.proc("main"))
        muls = count(program, BinOp)
        assert run_program(program, [3]).exit_code == 18

    def test_commutative_matching(self):
        def body(b):
            x = b.call("input", [0])
            y = b.call("input", [1])
            a = b.add(x, y)
            bb = b.add(y, x)
            b.ret(b.sub(a, bb))

        program = single_proc_program(body)
        assert local_cse(program, program.proc("main"))
        assert run_program(program, [3, 9]).exit_code == 0

    def test_loads_killed_by_store(self):
        def body(b):
            p = b.alloca(1)
            b.store(p, 1)
            v1 = b.load(p)
            b.store(p, 2)
            v2 = b.load(p)  # must NOT reuse v1
            b.ret(b.add(v1, v2))

        program = single_proc_program(body)
        local_cse(program, program.proc("main"))
        assert run_program(program).exit_code == 3

    def test_loads_killed_by_call(self):
        def body(b):
            p = b.alloca(1)
            b.store(p, 5)
            v1 = b.load(p)
            b.call("print_int", [v1], dest=False)
            v2 = b.load(p)
            b.ret(b.add(v1, v2))

        program = single_proc_program(body)
        local_cse(program, program.proc("main"))
        loads = count(program, Load)
        assert loads == 2  # the second load must survive

    def test_redefined_operand_kills_expression(self):
        def body(b):
            x = b.reg("x")
            b.mov(b.call("input", [0]), x)
            a = b.binop("add", x, 1)
            b.binop("mul", x, 2, dest=x)  # x changes: x + 1 is a new value
            c = b.binop("add", x, 1)  # must NOT reuse a
            b.ret(b.sub(c, a))

        program = single_proc_program(body)
        local_cse(program, program.proc("main"))
        assert run_program(program, [5]).exit_code == 5

    def test_redefined_address_kills_load(self):
        def body(b):
            p = b.reg("p")
            b.mov(b.alloca(2), p)
            b.store(p, 4)
            b.store(b.add(p, 1), 9)
            v1 = b.load(p)
            b.binop("add", p, 1, dest=p)  # p moves: [p] is another cell
            v2 = b.load(p)  # must NOT reuse v1
            b.ret(b.sub(v2, v1))

        program = single_proc_program(body)
        local_cse(program, program.proc("main"))
        assert run_program(program).exit_code == 5

    def test_self_referential_not_recorded(self):
        def body(b):
            x = b.reg("x")
            b.mov(1, x)
            b.binop("add", x, 1, dest=x)  # x = x + 1
            y = b.binop("add", x, 1)  # different value!
            b.ret(y)

        program = single_proc_program(body)
        local_cse(program, program.proc("main"))
        assert run_program(program).exit_code == 3


class TestDCE:
    def test_dead_arithmetic_removed(self):
        def body(b):
            b.mul(6, 7)  # dead
            b.ret(1)

        program = single_proc_program(body)
        assert dead_code_elimination(program, program.proc("main"))
        assert count(program, BinOp) == 0

    def test_possibly_trapping_div_kept(self):
        def body(b):
            n = b.call("input", [0])
            b.div(10, n)  # dead but may trap
            b.ret(1)

        program = single_proc_program(body)
        dead_code_elimination(program, program.proc("main"))
        assert count(program, BinOp) == 1

    def test_stores_never_removed(self):
        def body(b):
            p = b.alloca(1)
            b.store(p, 9)
            b.ret(0)

        program = single_proc_program(body)
        dead_code_elimination(program, program.proc("main"))
        assert count(program, Store) == 1

    def test_live_through_loop(self):
        def body(b):
            s = b.reg("s")
            i = b.reg("i")
            b.mov(0, s)
            b.mov(0, i)
            head, body_b, done = b.new_block(), b.new_block(), b.new_block()
            b.jump(head)
            b.set_block(head)
            t = b.lt(i, 5)
            b.branch(t, body_b, done)
            b.set_block(body_b)
            b.binop("add", s, i, dest=s)
            b.binop("add", i, 1, dest=i)
            b.jump(head)
            b.set_block(done)
            b.ret(s)

        program = single_proc_program(body)
        dead_code_elimination(program, program.proc("main"))
        assert run_program(program).exit_code == 10

    def test_liveness_facts(self):
        def body(b):
            x = b.reg("x")
            b.mov(3, x)
            exit_b = b.new_block()
            b.jump(exit_b)
            b.set_block(exit_b)
            b.ret(x)

        program = single_proc_program(body)
        live = liveness(program.proc("main"))
        assert "x" in live["entry"]


class TestPeephole:
    def cases(self):
        return [
            # (op, lhs_reg, const, expected result when reg=6)
            ("add", 0, 6),
            ("sub", 0, 6),
            ("mul", 1, 6),
            ("mul", 0, 0),
            ("div", 1, 6),
            ("or", 0, 6),
            ("xor", 0, 6),
            ("and", 0, 0),
            ("mod", 1, 0),
        ]

    def test_identities(self):
        for op, const, expected in self.cases():
            def body(b, op=op, const=const):
                x = b.call("input", [0])
                r = b.binop(op, x, const)
                b.ret(r)

            program = single_proc_program(body)
            peephole(program, program.proc("main"))
            assert run_program(program, [6]).exit_code == expected, (op, const)

    def test_mul_power_of_two_becomes_shift(self):
        def body(b):
            x = b.call("input", [0])
            b.ret(b.mul(x, 8))

        program = single_proc_program(body)
        assert peephole(program, program.proc("main"))
        shifts = [i for i in program.proc("main").instructions() if getattr(i, "op", "") == "shl"]
        assert shifts
        assert run_program(program, [5]).exit_code == 40

    def test_float_identities_not_applied(self):
        def body(b):
            x = b.call("input", [0])
            f = b.unop("itof", x)
            r = b.binop("add", f, b.const(0.0))
            g = b.unop("ftoi", r)
            b.ret(g)

        program = single_proc_program(body)
        changed = peephole(program, program.proc("main"))
        assert not changed  # 0.0 is a float immediate: no identity


class TestSimplifyCFG:
    def test_jump_threading_and_merge(self):
        def body(b):
            hop1, hop2, dest = b.new_block(), b.new_block(), b.new_block()
            b.jump(hop1)
            b.set_block(hop1)
            b.jump(hop2)
            b.set_block(hop2)
            b.jump(dest)
            b.set_block(dest)
            b.ret(9)

        program = single_proc_program(body)
        assert simplify_cfg(program, program.proc("main"))
        assert len(program.proc("main").blocks) == 1
        assert run_program(program).exit_code == 9

    def test_unreachable_blocks_removed(self):
        def body(b):
            dead = b.new_block()
            b.ret(1)
            b.set_block(dead)
            b.ret(2)

        program = single_proc_program(body)
        simplify_cfg(program, program.proc("main"))
        assert len(program.proc("main").blocks) == 1

    def test_same_target_branch_collapses(self):
        def body(b):
            t = b.call("input", [0])
            dest = b.new_block()
            b.block.append(Branch(t, dest.label, dest.label))
            b.set_block(dest)
            b.ret(4)

        program = single_proc_program(body)
        simplify_cfg(program, program.proc("main"))
        assert not any(
            isinstance(i, Branch) for i in program.proc("main").instructions()
        )
        assert run_program(program, [1]).exit_code == 4

    def test_entry_never_merged_away(self):
        def body(b):
            nxt = b.new_block()
            b.jump(nxt)
            b.set_block(nxt)
            b.ret(0)

        program = single_proc_program(body)
        simplify_cfg(program, program.proc("main"))
        proc = program.proc("main")
        assert proc.entry in proc.blocks
