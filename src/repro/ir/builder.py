"""A convenience builder for constructing IR procedures by hand.

Used by tests, examples, and the random program generator.  The builder
tracks a current insertion block; instruction helpers return the
destination register so expressions compose naturally::

    b = IRBuilder(module, "add3", [("x", Type.INT)])
    total = b.add(b.reg("x"), b.const(3))
    b.ret(total)
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

from .basicblock import BasicBlock
from .instructions import (
    Alloca,
    BinOp,
    Branch,
    Call,
    ICall,
    Jump,
    Load,
    Mov,
    Ret,
    Store,
    UnOp,
)
from .module import Module
from .procedure import Procedure
from .types import Type
from .values import FuncRef, GlobalRef, Imm, Operand, Reg

ConstLike = Union[int, float, Operand]


class IRBuilder:
    """Builds one procedure, inserting into a current block."""

    def __init__(
        self,
        module: Module,
        name: str,
        params: Optional[Sequence[Tuple[str, Type]]] = None,
        ret_type: Type = Type.INT,
        linkage: str = "global",
        attrs: Optional[Sequence[str]] = None,
    ):
        self.module = module
        self.proc = Procedure(
            name,
            list(params or []),
            ret_type=ret_type,
            module=module.name,
            linkage=linkage,
            attrs=set(attrs or []),
        )
        module.add_proc(self.proc)
        self.block: BasicBlock = self.proc.add_block(BasicBlock("entry"), entry=True)

    # ------------------------------------------------------------------
    # Operand helpers
    # ------------------------------------------------------------------

    def reg(self, name: str) -> Reg:
        return Reg(name)

    def const(self, value: Union[int, float]) -> Imm:
        if isinstance(value, float):
            return Imm(value, Type.FLT)
        return Imm(value)

    def func(self, name: str) -> FuncRef:
        return FuncRef(name)

    def glob(self, name: str) -> GlobalRef:
        return GlobalRef(name)

    def _op(self, value: ConstLike) -> Operand:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return self.const(value)
        if isinstance(value, bool):
            return self.const(int(value))
        return value

    # ------------------------------------------------------------------
    # Block management
    # ------------------------------------------------------------------

    def new_block(self, hint: str = "b") -> BasicBlock:
        return self.proc.new_block(hint)

    def set_block(self, block: BasicBlock) -> BasicBlock:
        self.block = block
        return block

    # ------------------------------------------------------------------
    # Instruction helpers
    # ------------------------------------------------------------------

    def mov(self, src: ConstLike, dest: Optional[Reg] = None) -> Reg:
        dest = dest or self.proc.new_reg()
        self.block.append(Mov(dest, self._op(src)))
        return dest

    def unop(self, op: str, src: ConstLike, dest: Optional[Reg] = None) -> Reg:
        dest = dest or self.proc.new_reg()
        self.block.append(UnOp(dest, op, self._op(src)))
        return dest

    def binop(
        self, op: str, lhs: ConstLike, rhs: ConstLike, dest: Optional[Reg] = None
    ) -> Reg:
        dest = dest or self.proc.new_reg()
        self.block.append(BinOp(dest, op, self._op(lhs), self._op(rhs)))
        return dest

    # Common binops as direct helpers.
    def add(self, a: ConstLike, b: ConstLike) -> Reg:
        return self.binop("add", a, b)

    def sub(self, a: ConstLike, b: ConstLike) -> Reg:
        return self.binop("sub", a, b)

    def mul(self, a: ConstLike, b: ConstLike) -> Reg:
        return self.binop("mul", a, b)

    def div(self, a: ConstLike, b: ConstLike) -> Reg:
        return self.binop("div", a, b)

    def eq(self, a: ConstLike, b: ConstLike) -> Reg:
        return self.binop("eq", a, b)

    def lt(self, a: ConstLike, b: ConstLike) -> Reg:
        return self.binop("lt", a, b)

    def load(self, addr: ConstLike, dest: Optional[Reg] = None) -> Reg:
        dest = dest or self.proc.new_reg()
        self.block.append(Load(dest, self._op(addr)))
        return dest

    def store(self, addr: ConstLike, value: ConstLike) -> None:
        self.block.append(Store(self._op(addr), self._op(value)))

    def alloca(self, size: ConstLike, dest: Optional[Reg] = None) -> Reg:
        dest = dest or self.proc.new_reg()
        self.block.append(Alloca(dest, self._op(size)))
        return dest

    def call(
        self,
        callee: str,
        args: Sequence[ConstLike] = (),
        dest: Union[Reg, None, bool] = True,
    ) -> Optional[Reg]:
        """Direct call. ``dest=True`` allocates a result register; ``None`` drops it."""
        if dest is True:
            dest = self.proc.new_reg()
        elif dest is False:
            dest = None
        site = self.module.new_site_id()
        self.block.append(Call(dest, callee, [self._op(a) for a in args], site))
        return dest

    def icall(
        self,
        func: ConstLike,
        args: Sequence[ConstLike] = (),
        dest: Union[Reg, None, bool] = True,
    ) -> Optional[Reg]:
        if dest is True:
            dest = self.proc.new_reg()
        elif dest is False:
            dest = None
        site = self.module.new_site_id()
        self.block.append(
            ICall(dest, self._op(func), [self._op(a) for a in args], site)
        )
        return dest

    def jump(self, target: BasicBlock) -> None:
        self.block.append(Jump(target.label))
        self.proc.drop_cfg_facts()

    def branch(
        self, cond: ConstLike, then_block: BasicBlock, else_block: BasicBlock
    ) -> None:
        self.block.append(Branch(self._op(cond), then_block.label, else_block.label))
        self.proc.drop_cfg_facts()

    def ret(self, value: Optional[ConstLike] = None) -> None:
        self.block.append(Ret(self._op(value) if value is not None else None))
