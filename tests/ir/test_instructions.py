"""Instruction behaviours: uses, operand rewriting, retargeting, copying."""

import pytest

from repro.ir import (
    Alloca,
    BinOp,
    Branch,
    Call,
    ICall,
    Imm,
    Instr,
    Jump,
    Load,
    Mov,
    Probe,
    Reg,
    Ret,
    Store,
    UnOp,
    FuncRef,
)


def upper_regs(op):
    if isinstance(op, Reg):
        return Reg(op.name.upper())
    return op


# One instance of every concrete instruction class.
EVERY_INSTR = [
    Mov(Reg("d"), Reg("s")),
    UnOp(Reg("d"), "neg", Reg("s")),
    BinOp(Reg("d"), "add", Reg("a"), Imm(1)),
    Load(Reg("d"), Reg("p")),
    Store(Reg("p"), Imm(2)),
    Alloca(Reg("d"), Imm(4)),
    Call(Reg("d"), "f", [Reg("a"), Imm(1)], site_id=3, origin=1),
    ICall(Reg("d"), Reg("fp"), [Reg("a")], site_id=4),
    Jump("L"),
    Branch(Reg("c"), "T", "F"),
    Ret(Reg("v")),
    Probe(5),
]


class TestUsesAndMapping:
    def test_mov(self):
        instr = Mov(Reg("d"), Reg("s"))
        assert instr.uses() == [Reg("s")]
        instr.map_operands(upper_regs)
        assert instr.src == Reg("S")
        assert instr.dest == Reg("d")  # dest is not a use

    def test_binop(self):
        instr = BinOp(Reg("d"), "add", Reg("a"), Imm(3))
        assert instr.uses() == [Reg("a"), Imm(3)]
        instr.map_operands(upper_regs)
        assert instr.lhs == Reg("A")
        assert instr.rhs == Imm(3)

    def test_unop(self):
        instr = UnOp(Reg("d"), "neg", Reg("a"))
        assert instr.uses() == [Reg("a")]

    def test_load_store(self):
        load = Load(Reg("d"), Reg("p"))
        store = Store(Reg("p"), Reg("v"))
        assert load.uses() == [Reg("p")]
        assert store.uses() == [Reg("p"), Reg("v")]
        assert store.dest is None

    def test_call_uses_args_only(self):
        call = Call(Reg("d"), "f", [Reg("a"), Imm(1)], site_id=7)
        assert call.uses() == [Reg("a"), Imm(1)]
        call.map_operands(upper_regs)
        assert call.args == [Reg("A"), Imm(1)]
        assert call.site_id == 7

    def test_icall_uses_func_and_args(self):
        icall = ICall(None, Reg("f"), [Reg("a")], site_id=3)
        assert icall.uses() == [Reg("f"), Reg("a")]
        icall.map_operands(upper_regs)
        assert icall.func == Reg("F")

    def test_branch_and_ret(self):
        br = Branch(Reg("c"), "a", "b")
        assert br.uses() == [Reg("c")]
        ret = Ret(Reg("v"))
        assert ret.uses() == [Reg("v")]
        assert Ret(None).uses() == []


class TestControlFlow:
    def test_targets(self):
        assert Jump("x").targets() == ["x"]
        assert Branch(Imm(1), "a", "b").targets() == ["a", "b"]
        assert Ret(None).targets() == []
        assert Mov(Reg("d"), Imm(0)).targets() == []

    def test_retarget(self):
        br = Branch(Imm(1), "a", "b")
        br.retarget({"a": "z"})
        assert br.targets() == ["z", "b"]
        jmp = Jump("a")
        jmp.retarget({"a": "q", "b": "r"})
        assert jmp.target == "q"

    def test_terminator_flags(self):
        assert Jump("x").is_terminator
        assert Branch(Imm(1), "a", "b").is_terminator
        assert Ret(None).is_terminator
        assert not Call(None, "f", [], 0).is_terminator
        assert not Probe(0).is_terminator


class TestMisc:
    def test_alloca_dynamic_flag(self):
        assert not Alloca(Reg("d"), Imm(8)).is_dynamic
        assert Alloca(Reg("d"), Reg("n")).is_dynamic

    def test_icall_to_direct(self):
        icall = ICall(Reg("d"), FuncRef("f"), [Imm(1)], site_id=9)
        call = icall.to_direct()
        assert isinstance(call, Call)
        assert call.callee == "f"
        assert call.site_id == 9
        assert call.origin == 9

    def test_icall_to_direct_requires_funcref(self):
        with pytest.raises(ValueError):
            ICall(None, Reg("f"), [], 0).to_direct()

    def test_origin_defaults_to_site(self):
        call = Call(None, "f", [], site_id=4)
        assert call.origin == 4
        derived = Call(None, "f", [], site_id=9, origin=4)
        assert derived.origin == 4

    def test_copy_is_deep(self):
        assert {type(instr) for instr in EVERY_INSTR} == set(Instr.__subclasses__())
        for instr in EVERY_INSTR:
            cls = type(instr)
            dup = instr.copy()
            assert dup is not instr and type(dup) is cls
            slots = [s for k in cls.__mro__ for s in getattr(k, "__slots__", ())]
            assert slots, cls.__name__
            for slot in slots:
                value = getattr(instr, slot)
                assert getattr(dup, slot) == value, (cls.__name__, slot)
                if type(value) is list:
                    assert getattr(dup, slot) is not value, (cls.__name__, slot)

        call = Call(Reg("d"), "f", [Reg("a")], 1)
        dup = call.copy()
        dup.args[0] = Imm(9)
        dup.site_id = 99
        assert call.args == [Reg("a")]
        assert call.site_id == 1

    def test_str_forms(self):
        assert str(Mov(Reg("d"), Imm(1))) == "%d = mov 1"
        assert str(Store(Reg("p"), Imm(2))) == "store [%p], 2"
        assert str(Jump("L")) == "jmp L"
        assert "call @f(%a) #2" in str(Call(None, "f", [Reg("a")], 2))
        assert str(Probe(5)) == "probe 5"
