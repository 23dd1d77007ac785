"""The IRBuilder convenience API."""

import pytest

from repro.interp import run_program
from repro.ir import (
    FuncRef,
    GlobalRef,
    IRBuilder,
    Imm,
    Module,
    Program,
    Type,
    verify_program,
)


class TestBuilder:
    def test_python_numbers_become_immediates(self):
        mod = Module("m")
        b = IRBuilder(mod, "main")
        r = b.add(2, 3)
        b.ret(r)
        assert run_program(Program([mod])).exit_code == 5

    def test_float_literal_typing(self):
        mod = Module("m")
        b = IRBuilder(mod, "main", ret_type=Type.FLT)
        b.ret(b.binop("mul", 2.0, 1.5))
        program = Program([mod])
        verify_program(program)
        assert b.const(2.5) == Imm(2.5, Type.FLT)
        assert b.const(2) == Imm(2)

    def test_bool_coerces_to_int(self):
        mod = Module("m")
        b = IRBuilder(mod, "main")
        b.ret(b.mov(True))
        assert run_program(Program([mod])).exit_code == 1

    def test_operand_helpers(self):
        mod = Module("m")
        b = IRBuilder(mod, "f")
        assert b.func("g") == FuncRef("g")
        assert b.glob("x") == GlobalRef("x")
        b.ret(0)

    def test_call_dest_modes(self):
        mod = Module("m")
        b = IRBuilder(mod, "main")
        explicit = b.reg("out")
        got = b.call("input", [0], dest=explicit)
        assert got == explicit
        dropped = b.call("print_int", [got], dest=False)
        assert dropped is None
        auto = b.call("input", [1])
        assert auto is not None and auto != explicit
        b.ret(auto)
        verify_program(Program([mod]))

    def test_site_ids_assigned_from_module(self):
        mod = Module("m")
        b = IRBuilder(mod, "main")
        b.call("input", [0])
        b.call("input", [1])
        b.ret(0)
        sites = [i.site_id for _b, _i, i in b.proc.call_sites()]
        assert sites == [0, 1]

    def test_branch_and_blocks(self):
        mod = Module("m")
        b = IRBuilder(mod, "main")
        t = b.lt(b.call("input", [0]), 10)
        yes, no = b.new_block("yes"), b.new_block("no")
        b.branch(t, yes, no)
        b.set_block(yes)
        b.ret(1)
        b.set_block(no)
        b.ret(2)
        program = Program([mod])
        verify_program(program)
        assert run_program(program, [5]).exit_code == 1
        assert run_program(program, [50]).exit_code == 2

    def test_a_cfg_read_mid_build_sees_each_new_edge(self):
        b = IRBuilder(Module("m"), "main")
        yes, no = b.new_block("yes"), b.new_block("no")
        assert b.proc.rpo_labels() == ["entry"]
        b.branch(1, yes, no)
        assert b.proc.rpo_labels() == ["entry", no.label, yes.label]
        b.set_block(yes)
        assert b.proc.predecessors()[no.label] == ["entry"]
        b.jump(no)
        assert b.proc.predecessors()[no.label] == ["entry", yes.label]

    def test_duplicate_proc_name_rejected(self):
        mod = Module("m")
        IRBuilder(mod, "f").ret(0)
        with pytest.raises(ValueError):
            IRBuilder(mod, "f")

    def test_memory_helpers(self):
        mod = Module("m")
        b = IRBuilder(mod, "main")
        base = b.alloca(4)
        b.store(b.add(base, 1), 42)
        b.ret(b.load(b.add(base, 1)))
        assert run_program(Program([mod])).exit_code == 42

    def test_icall_through_funcref(self):
        mod = Module("m")
        callee = IRBuilder(mod, "target", [("x", Type.INT)])
        callee.ret(callee.binop("mul", callee.reg("x"), 3))
        b = IRBuilder(mod, "main")
        r = b.icall(b.func("target"), [7])
        b.ret(r)
        assert run_program(Program([mod])).exit_code == 21
