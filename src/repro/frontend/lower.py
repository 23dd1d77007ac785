"""Lowering: minic AST to ucode-like IR.

Each function lowers to a CFG of basic blocks through a small
block-cursor state machine.  Conventions:

- Local scalars live in virtual registers (one fresh register per
  declaration, so shadowing works).  Their address cannot be taken —
  minic keeps address-taken data in arrays and globals, which keeps the
  IR's memory model word-granular and honest.
- Local arrays lower to a fixed-size ``alloca`` hoisted into the entry
  block (allocated once per call, as in C).  The special form
  ``alloca(n)`` produces a *dynamic* alloca, which marks the procedure
  un-inlinable (one of the paper's pragmatic restrictions).
- Global scalars are loads/stores of their one-word cell; arrays decay
  to base addresses; pointer arithmetic is word-granular.
- Mixed int/float arithmetic inserts explicit conversions, C-style
  (ints promote to float; float-to-int assignment truncates).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..ir.basicblock import BasicBlock
from ..ir.instructions import (
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
from ..ir.module import GlobalVar, Module
from ..ir.ops import COMPARISON_OPS
from ..ir.procedure import ATTR_VARARGS, LINK_GLOBAL, LINK_STATIC, Procedure
from ..ir.types import Type
from ..ir.values import FuncRef, GlobalRef, Imm, Operand, Reg
from . import ast
from .errors import CompileError
from .sema import ALLOCA_NAME, FuncInfo, ModuleSymbols

# Value categories a Name can lower to.
_SCALAR = "scalar"
_ARRAY = "array"


class _LocalVar:
    __slots__ = ("reg", "type", "kind")

    def __init__(self, reg: Reg, ty: Type, kind: str):
        self.reg = reg
        self.type = ty
        self.kind = kind  # _SCALAR: reg holds the value; _ARRAY: base addr


class FunctionLowerer:
    def __init__(self, module: Module, syms: ModuleSymbols, decl: ast.FuncDef, info: FuncInfo):
        self.module = module
        self.syms = syms
        self.decl = decl
        self.info = info

        attrs = set(info.attrs)
        if decl.varargs:
            attrs.add(ATTR_VARARGS)
        self.proc = Procedure(
            info.ir_name,
            [(p.name, p.type) for p in decl.params],
            ret_type=decl.ret_type,
            module=module.name,
            linkage=LINK_STATIC if info.static else LINK_GLOBAL,
            attrs=attrs,
        )
        module.add_proc(self.proc)

        # The names the procedure defines so far (``Procedure.reg_names``
        # of the body as emitted), so a fresh register costs no scan.
        self.defined_regs = {p.name for p in decl.params}
        self.entry = self.proc.add_block(BasicBlock("entry"), entry=True)
        self.block = self.entry
        self._entry_alloca_index = 0
        self.scopes: List[Dict[str, _LocalVar]] = [
            {p.name: _LocalVar(Reg(p.name), p.type, _SCALAR) for p in decl.params}
        ]
        self.break_targets: List[BasicBlock] = []  # loops and switches
        self.continue_targets: List[BasicBlock] = []  # loops only

    # ------------------------------------------------------------------
    # Emission plumbing
    # ------------------------------------------------------------------

    def emit(self, instr) -> None:
        block = self.block
        if block.terminator is None:
            block.instrs.append(instr)
            if instr.dest is not None:
                self.defined_regs.add(instr.dest.name)
        # Silently drop instructions in dead code after a terminator;
        # the parser produced them, but they can never execute.  A
        # dropped instruction's register name stays free for reuse.

    def new_block(self, hint: str) -> BasicBlock:
        return self.proc.new_block(hint)

    def start_block(self, block: BasicBlock) -> None:
        self.block = block

    def terminate(self, instr) -> None:
        if self.block.terminator is None:
            self.block.append(instr)

    def reg(self, hint: str = "t") -> Reg:
        return self.proc.new_reg(hint, self.defined_regs)

    def lookup_local(self, name: str) -> Optional[_LocalVar]:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None

    def error(self, message: str, node) -> CompileError:
        return CompileError(message, getattr(node, "line", 0), self.module.name)

    # ------------------------------------------------------------------
    # Types and conversions
    # ------------------------------------------------------------------

    def convert(self, op: Operand, src: Type, dst: Type, node) -> Operand:
        if src == dst:
            return op
        if src is Type.INT and dst is Type.FLT:
            if isinstance(op, Imm):
                return Imm(float(op.value), Type.FLT)
            dest = self.reg()
            self.emit(UnOp(dest, "itof", op))
            return dest
        if src is Type.FLT and dst is Type.INT:
            dest = self.reg()
            self.emit(UnOp(dest, "ftoi", op))
            return dest
        raise self.error("cannot convert {} to {}".format(src, dst), node)

    @staticmethod
    def _common_type(a: Type, b: Type) -> Type:
        return Type.FLT if Type.FLT in (a, b) else Type.INT

    # ------------------------------------------------------------------
    # Function body
    # ------------------------------------------------------------------

    def lower_body(self) -> Procedure:
        assert self.decl.body is not None
        self.lower_stmt(self.decl.body)
        if self.block.terminator is None:
            if self.proc.ret_type is Type.VOID:
                self.terminate(Ret(None))
            elif self.proc.ret_type is Type.FLT:
                self.terminate(Ret(Imm(0.0, Type.FLT)))
            else:
                self.terminate(Ret(Imm(0)))
        # Any block left unterminated (dead joins) gets a default return.
        for block in self.proc.blocks.values():
            if block.terminator is None:
                if self.proc.ret_type is Type.VOID:
                    block.append(Ret(None))
                elif self.proc.ret_type is Type.FLT:
                    block.append(Ret(Imm(0.0, Type.FLT)))
                else:
                    block.append(Ret(Imm(0)))
        return self.proc

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def lower_stmt(self, stmt: ast.Stmt) -> None:
        cls = stmt.__class__
        if cls is ast.Block:
            self.scopes.append({})
            for child in stmt.stmts:
                self.lower_stmt(child)
            self.scopes.pop()
        elif cls is ast.LocalDecl:
            self.lower_local_decl(stmt)
        elif cls is ast.ExprStmt:
            self.lower_expr(stmt.expr, want_value=False)
        elif cls is ast.If:
            self.lower_if(stmt)
        elif cls is ast.While:
            self.lower_while(stmt)
        elif cls is ast.DoWhile:
            self.lower_do_while(stmt)
        elif cls is ast.For:
            self.lower_for(stmt)
        elif cls is ast.Return:
            self.lower_return(stmt)
        elif cls is ast.Switch:
            self.lower_switch(stmt)
        elif cls is ast.Break:
            if not self.break_targets:
                raise self.error("break outside a loop or switch", stmt)
            self.terminate(Jump(self.break_targets[-1].label))
        elif cls is ast.Continue:
            if not self.continue_targets:
                raise self.error("continue outside a loop", stmt)
            self.terminate(Jump(self.continue_targets[-1].label))
        else:  # pragma: no cover
            raise self.error("unknown statement {!r}".format(stmt), stmt)

    def lower_local_decl(self, decl: ast.LocalDecl) -> None:
        if self.lookup_local(decl.name) is not None and decl.name in self.scopes[-1]:
            raise self.error("redeclaration of {!r}".format(decl.name), decl)
        if decl.array_size is not None:
            if decl.array_size <= 0:
                raise self.error("array size must be positive", decl)
            if decl.init is not None:
                raise self.error("local arrays cannot have initializers", decl)
            base = self.reg("arr")
            # Hoist to the entry block so the allocation happens once
            # per call, regardless of loops around the declaration.
            self.entry.instrs.insert(
                self._entry_alloca_index, Alloca(base, Imm(decl.array_size))
            )
            self.defined_regs.add(base.name)
            self._entry_alloca_index += 1
            self.scopes[-1][decl.name] = _LocalVar(base, decl.type, _ARRAY)
            return
        reg = self.reg("v_" + decl.name)
        self.scopes[-1][decl.name] = _LocalVar(reg, decl.type, _SCALAR)
        if decl.init is not None:
            value, vtype = self.lower_expr(decl.init)
            value = self.convert(value, vtype, decl.type, decl)
            self.emit(Mov(reg, value))
        else:
            zero = Imm(0.0, Type.FLT) if decl.type is Type.FLT else Imm(0)
            self.emit(Mov(reg, zero))

    def lower_if(self, stmt: ast.If) -> None:
        then_block = self.new_block("if.then")
        join = self.new_block("if.join")
        else_block = self.new_block("if.else") if stmt.else_body else join
        self.lower_condition(stmt.cond, then_block, else_block)
        self.start_block(then_block)
        self.lower_stmt(stmt.then_body)
        self.terminate(Jump(join.label))
        if stmt.else_body is not None:
            self.start_block(else_block)
            self.lower_stmt(stmt.else_body)
            self.terminate(Jump(join.label))
        self.start_block(join)

    def lower_while(self, stmt: ast.While) -> None:
        head = self.new_block("while.head")
        body = self.new_block("while.body")
        done = self.new_block("while.done")
        self.terminate(Jump(head.label))
        self.start_block(head)
        self.lower_condition(stmt.cond, body, done)
        self.start_block(body)
        self.break_targets.append(done)
        self.continue_targets.append(head)
        self.lower_stmt(stmt.body)
        self.continue_targets.pop()
        self.break_targets.pop()
        self.terminate(Jump(head.label))
        self.start_block(done)

    def lower_do_while(self, stmt: ast.DoWhile) -> None:
        body = self.new_block("do.body")
        cond = self.new_block("do.cond")
        done = self.new_block("do.done")
        self.terminate(Jump(body.label))
        self.start_block(body)
        self.break_targets.append(done)
        self.continue_targets.append(cond)
        self.lower_stmt(stmt.body)
        self.continue_targets.pop()
        self.break_targets.pop()
        self.terminate(Jump(cond.label))
        self.start_block(cond)
        self.lower_condition(stmt.cond, body, done)
        self.start_block(done)

    def lower_for(self, stmt: ast.For) -> None:
        self.scopes.append({})
        if stmt.init is not None:
            self.lower_stmt(stmt.init)
        head = self.new_block("for.head")
        body = self.new_block("for.body")
        step = self.new_block("for.step")
        done = self.new_block("for.done")
        self.terminate(Jump(head.label))
        self.start_block(head)
        if stmt.cond is not None:
            self.lower_condition(stmt.cond, body, done)
        else:
            self.terminate(Jump(body.label))
        self.start_block(body)
        self.break_targets.append(done)
        self.continue_targets.append(step)
        self.lower_stmt(stmt.body)
        self.continue_targets.pop()
        self.break_targets.pop()
        self.terminate(Jump(step.label))
        self.start_block(step)
        if stmt.step is not None:
            self.lower_expr(stmt.step, want_value=False)
        self.terminate(Jump(head.label))
        self.start_block(done)
        self.scopes.pop()

    def lower_switch(self, stmt: ast.Switch) -> None:
        """C switch with fallthrough.

        The scrutinee is evaluated once; a chain of equality tests
        dispatches to the matching arm's body block; bodies fall through
        to the next arm's body in source order; ``break`` exits.
        """
        scrutinee, stype = self.lower_expr(stmt.cond)
        if stype is not Type.INT:
            raise self.error("switch requires an integer expression", stmt)
        # Pin the value in a register: the dispatch chain re-reads it.
        pinned = self.reg("sw")
        self.emit(Mov(pinned, scrutinee))

        exit_block = self.new_block("sw.exit")
        body_blocks = [self.new_block("sw.case") for _ in stmt.cases]
        default_body: Optional[BasicBlock] = None
        for case, body in zip(stmt.cases, body_blocks):
            if case.value is None:
                default_body = body

        # Dispatch chain: one test per non-default case, in order.
        current = self.block
        for index, case in enumerate(stmt.cases):
            if case.value is None:
                continue
            self.start_block(current)
            test = self.reg()
            self.emit(BinOp(test, "eq", pinned, Imm(case.value)))
            next_test = self.new_block("sw.test")
            self.terminate(Branch(test, body_blocks[index].label, next_test.label))
            current = next_test
        self.start_block(current)
        fallback = default_body if default_body is not None else exit_block
        self.terminate(Jump(fallback.label))

        # Bodies in source order, falling through to the next.
        self.break_targets.append(exit_block)
        for index, case in enumerate(stmt.cases):
            self.start_block(body_blocks[index])
            for child in case.stmts:
                self.lower_stmt(child)
            following = (
                body_blocks[index + 1] if index + 1 < len(body_blocks) else exit_block
            )
            self.terminate(Jump(following.label))
        self.break_targets.pop()
        self.start_block(exit_block)

    def lower_return(self, stmt: ast.Return) -> None:
        if self.proc.ret_type is Type.VOID:
            if stmt.value is not None:
                raise self.error("return with value in void function", stmt)
            self.terminate(Ret(None))
            return
        if stmt.value is None:
            raise self.error("return without value in non-void function", stmt)
        value, vtype = self.lower_expr(stmt.value)
        value = self.convert(value, vtype, self.proc.ret_type, stmt)
        self.terminate(Ret(value))

    def lower_condition(self, expr: ast.Expr, then_block: BasicBlock, else_block: BasicBlock) -> None:
        """Lower a boolean context, short-circuiting && and || into CFG."""
        if isinstance(expr, ast.ShortCircuit):
            mid = self.new_block("sc.mid")
            if expr.op == "&&":
                self.lower_condition(expr.lhs, mid, else_block)
            else:
                self.lower_condition(expr.lhs, then_block, mid)
            self.start_block(mid)
            self.lower_condition(expr.rhs, then_block, else_block)
            return
        if isinstance(expr, ast.Unary) and expr.op == "!":
            self.lower_condition(expr.operand, else_block, then_block)
            return
        value, vtype = self.lower_expr(expr)
        if vtype is Type.FLT:
            test = self.reg()
            self.emit(BinOp(test, "ne", value, Imm(0.0, Type.FLT)))
            value = test
        self.terminate(Branch(value, then_block.label, else_block.label))

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def lower_expr(self, expr: ast.Expr, want_value: bool = True) -> Tuple[Operand, Type]:
        cls = expr.__class__
        if cls is ast.IntLit:
            return Imm(expr.value), Type.INT
        if cls is ast.FloatLit:
            return Imm(expr.value, Type.FLT), Type.FLT
        if cls is ast.Name:
            return self.lower_name(expr)
        if cls is ast.Binary:
            return self.lower_binary(expr)
        if cls is ast.ShortCircuit:
            return self.lower_short_circuit(expr)
        if cls is ast.Unary:
            return self.lower_unary(expr)
        if cls is ast.Conditional:
            return self.lower_conditional(expr)
        if cls is ast.Assign:
            return self.lower_assign(expr)
        if cls is ast.IncDec:
            return self.lower_incdec(expr)
        if cls is ast.CallExpr:
            return self.lower_call(expr, want_value)
        if cls is ast.Index:
            addr, elem = self.lower_address_of_index(expr)
            dest = self.reg()
            self.emit(Load(dest, addr))
            return dest, elem
        raise self.error("unknown expression {!r}".format(expr), expr)  # pragma: no cover

    def lower_name(self, expr: ast.Name) -> Tuple[Operand, Type]:
        local = self.lookup_local(expr.name)
        if local is not None:
            if local.kind == _ARRAY:
                return local.reg, Type.INT  # decay to base address
            return local.reg, local.type
        ginfo = self.syms.lookup_global(expr.name)
        if ginfo is not None:
            if ginfo.is_array:
                return GlobalRef(ginfo.ir_name), Type.INT
            dest = self.reg()
            self.emit(Load(dest, GlobalRef(ginfo.ir_name)))
            return dest, ginfo.type
        finfo = self.syms.lookup_func(expr.name)
        if finfo is not None:
            if finfo.ir_name == ALLOCA_NAME:
                raise self.error("alloca must be called directly", expr)
            return FuncRef(finfo.ir_name), Type.INT  # code pointer
        raise self.error("undeclared identifier {!r}".format(expr.name), expr)

    def lower_binary(self, expr: ast.Binary) -> Tuple[Operand, Type]:
        lhs, ltype = self.lower_expr(expr.lhs)
        rhs, rtype = self.lower_expr(expr.rhs)
        common = self._common_type(ltype, rtype)
        if expr.op in ("mod", "and", "or", "xor", "shl", "shr") and common is Type.FLT:
            raise self.error("operator {!r} requires integers".format(expr.op), expr)
        lhs = self.convert(lhs, ltype, common, expr)
        rhs = self.convert(rhs, rtype, common, expr)
        dest = self.reg()
        self.emit(BinOp(dest, expr.op, lhs, rhs))
        return dest, Type.INT if expr.op in COMPARISON_OPS else common

    def lower_short_circuit(self, expr: ast.ShortCircuit) -> Tuple[Operand, Type]:
        result = self.reg("sc")
        true_block = self.new_block("sc.true")
        false_block = self.new_block("sc.false")
        join = self.new_block("sc.join")
        self.lower_condition(expr, true_block, false_block)
        self.start_block(true_block)
        self.emit(Mov(result, Imm(1)))
        self.terminate(Jump(join.label))
        self.start_block(false_block)
        self.emit(Mov(result, Imm(0)))
        self.terminate(Jump(join.label))
        self.start_block(join)
        return result, Type.INT

    def lower_unary(self, expr: ast.Unary) -> Tuple[Operand, Type]:
        if expr.op == "*":
            value, _ = self.lower_expr(expr.operand)
            dest = self.reg()
            self.emit(Load(dest, value))
            return dest, Type.INT
        if expr.op == "&":
            return self.lower_address_of(expr.operand), Type.INT
        value, vtype = self.lower_expr(expr.operand)
        dest = self.reg()
        if expr.op == "-":
            self.emit(UnOp(dest, "neg", value))
            return dest, vtype
        if expr.op == "!":
            if vtype is Type.FLT:
                test = self.reg()
                self.emit(BinOp(test, "eq", value, Imm(0.0, Type.FLT)))
                return test, Type.INT
            self.emit(UnOp(dest, "lnot", value))
            return dest, Type.INT
        if expr.op == "~":
            if vtype is not Type.INT:
                raise self.error("~ requires an integer", expr)
            self.emit(UnOp(dest, "not", value))
            return dest, Type.INT
        raise self.error("unknown unary {!r}".format(expr.op), expr)  # pragma: no cover

    def lower_address_of(self, expr: ast.Expr) -> Operand:
        if isinstance(expr, ast.Name):
            local = self.lookup_local(expr.name)
            if local is not None:
                if local.kind == _ARRAY:
                    return local.reg
                raise self.error(
                    "cannot take the address of register local {!r}; "
                    "use a one-element array".format(expr.name),
                    expr,
                )
            ginfo = self.syms.lookup_global(expr.name)
            if ginfo is not None:
                return GlobalRef(ginfo.ir_name)
            finfo = self.syms.lookup_func(expr.name)
            if finfo is not None and finfo.ir_name != ALLOCA_NAME:
                return FuncRef(finfo.ir_name)
            raise self.error("undeclared identifier {!r}".format(expr.name), expr)
        if isinstance(expr, ast.Index):
            addr, _ = self.lower_address_of_index(expr)
            return addr
        if isinstance(expr, ast.Unary) and expr.op == "*":
            value, _ = self.lower_expr(expr.operand)
            return value
        raise self.error("cannot take the address of this expression", expr)

    def lower_address_of_index(self, expr: ast.Index) -> Tuple[Operand, Type]:
        """Address of base[index]; returns (address operand, element type)."""
        elem = Type.INT
        base_op: Operand
        if isinstance(expr.base, ast.Name):
            name = expr.base.name
            local = self.lookup_local(name)
            ginfo = self.syms.lookup_global(name) if local is None else None
            if local is not None:
                base_op = local.reg
                if local.kind == _ARRAY:
                    elem = local.type
            elif ginfo is not None:
                base_op = GlobalRef(ginfo.ir_name)
                elem = ginfo.type if ginfo.is_array else Type.INT
                if not ginfo.is_array:
                    # Indexing a scalar global treats its value as a pointer.
                    loaded = self.reg()
                    self.emit(Load(loaded, base_op))
                    base_op = loaded
                    elem = Type.INT
            else:
                base_val, _ = self.lower_name(expr.base)
                base_op = base_val
        else:
            base_val, _ = self.lower_expr(expr.base)
            base_op = base_val
        index, itype = self.lower_expr(expr.index)
        if itype is not Type.INT:
            raise self.error("array index must be an integer", expr)
        if isinstance(index, Imm) and index.value == 0:
            return base_op, elem
        addr = self.reg("addr")
        self.emit(BinOp(addr, "add", base_op, index))
        return addr, elem

    def lower_conditional(self, expr: ast.Conditional) -> Tuple[Operand, Type]:
        result = self.reg("sel")
        then_block = self.new_block("sel.then")
        else_block = self.new_block("sel.else")
        join = self.new_block("sel.join")
        self.lower_condition(expr.cond, then_block, else_block)

        self.start_block(then_block)
        tval, ttype = self.lower_expr(expr.then_expr)
        then_end = self.block

        self.start_block(else_block)
        eval_, etype = self.lower_expr(expr.else_expr)
        else_end = self.block

        common = self._common_type(ttype, etype)
        self.start_block(then_end)
        tval = self.convert(tval, ttype, common, expr)
        self.emit(Mov(result, tval))
        self.terminate(Jump(join.label))
        self.start_block(else_end)
        eval_ = self.convert(eval_, etype, common, expr)
        self.emit(Mov(result, eval_))
        self.terminate(Jump(join.label))
        self.start_block(join)
        return result, common

    def lower_assign(self, expr: ast.Assign) -> Tuple[Operand, Type]:
        target = expr.target
        # Compound assignment reads the old value.
        if isinstance(target, ast.Name):
            local = self.lookup_local(target.name)
            if local is not None and local.kind == _SCALAR:
                value, vtype = self._assigned_value(expr, lambda: (local.reg, local.type))
                value = self.convert(value, vtype, local.type, expr)
                self.emit(Mov(local.reg, value))
                return local.reg, local.type
            ginfo = self.syms.lookup_global(target.name)
            if ginfo is not None and not ginfo.is_array:
                addr = GlobalRef(ginfo.ir_name)
                return self._assign_through(expr, addr, ginfo.type)
            raise self.error("invalid assignment target {!r}".format(target.name), expr)
        if isinstance(target, ast.Index):
            addr, elem = self.lower_address_of_index(target)
            return self._assign_through(expr, addr, elem)
        if isinstance(target, ast.Unary) and target.op == "*":
            addr, _ = self.lower_expr(target.operand)
            return self._assign_through(expr, addr, Type.INT)
        raise self.error("invalid assignment target", expr)

    def _assigned_value(self, expr: ast.Assign, read_old) -> Tuple[Operand, Type]:
        value, vtype = self.lower_expr(expr.value)
        if expr.op:
            old, old_type = read_old()
            common = self._common_type(old_type, vtype)
            old = self.convert(old, old_type, common, expr)
            value = self.convert(value, vtype, common, expr)
            dest = self.reg()
            self.emit(BinOp(dest, expr.op, old, value))
            return dest, common
        return value, vtype

    def _assign_through(self, expr: ast.Assign, addr: Operand, elem: Type) -> Tuple[Operand, Type]:
        def read_old() -> Tuple[Operand, Type]:
            old = self.reg()
            self.emit(Load(old, addr))
            return old, elem

        value, vtype = self._assigned_value(expr, read_old)
        value = self.convert(value, vtype, elem, expr)
        self.emit(Store(addr, value))
        return value, elem

    def lower_incdec(self, expr: ast.IncDec) -> Tuple[Operand, Type]:
        delta = 1 if expr.op == "++" else -1
        target = expr.target
        if isinstance(target, ast.Name):
            local = self.lookup_local(target.name)
            if local is not None and local.kind == _SCALAR:
                if local.type is Type.FLT:
                    step: Operand = Imm(float(delta), Type.FLT)
                else:
                    step = Imm(delta)
                old = None
                if not expr.prefix:
                    old = self.reg("post")
                    self.emit(Mov(old, local.reg))
                updated = self.reg()
                self.emit(BinOp(updated, "add", local.reg, step))
                self.emit(Mov(local.reg, updated))
                return (old if old is not None else local.reg), local.type
            ginfo = self.syms.lookup_global(target.name)
            if ginfo is not None and not ginfo.is_array:
                return self._incdec_through(expr, GlobalRef(ginfo.ir_name), ginfo.type, delta)
            raise self.error("invalid ++/-- target {!r}".format(target.name), expr)
        if isinstance(target, ast.Index):
            addr, elem = self.lower_address_of_index(target)
            return self._incdec_through(expr, addr, elem, delta)
        if isinstance(target, ast.Unary) and target.op == "*":
            addr, _ = self.lower_expr(target.operand)
            return self._incdec_through(expr, addr, Type.INT, delta)
        raise self.error("invalid ++/-- target", expr)

    def _incdec_through(self, expr: ast.IncDec, addr: Operand, elem: Type, delta: int) -> Tuple[Operand, Type]:
        old = self.reg()
        self.emit(Load(old, addr))
        step: Operand = Imm(float(delta), Type.FLT) if elem is Type.FLT else Imm(delta)
        updated = self.reg()
        self.emit(BinOp(updated, "add", old, step))
        self.emit(Store(addr, updated))
        return (old if not expr.prefix else updated), elem

    def lower_call(self, expr: ast.CallExpr, want_value: bool) -> Tuple[Operand, Type]:
        func = expr.func
        # Direct call through a function name (unless shadowed by a local).
        if isinstance(func, ast.Name) and self.lookup_local(func.name) is None:
            finfo = self.syms.lookup_func(func.name)
            if finfo is not None:
                if finfo.ir_name == ALLOCA_NAME:
                    return self.lower_alloca(expr)
                return self.lower_direct_call(expr, finfo, want_value)
            # A global scalar holding a code pointer is an indirect call.
        # Indirect call: evaluate the function expression to a code pointer.
        fval, _ = self.lower_expr(func)
        args = [self.lower_expr(a)[0] for a in expr.args]
        dest = self.reg() if want_value else None
        self.emit(ICall(dest, fval, args, self.module.new_site_id()))
        return (dest if dest is not None else Imm(0)), Type.INT

    def lower_direct_call(self, expr: ast.CallExpr, finfo: FuncInfo, want_value: bool) -> Tuple[Operand, Type]:
        sig = finfo.sig
        fixed = len(sig.params)
        if sig.varargs:
            if len(expr.args) < fixed:
                raise self.error(
                    "too few arguments to {!r}".format(finfo.source_name), expr
                )
        elif len(expr.args) != fixed:
            raise self.error(
                "{!r} expects {} arguments, got {}".format(
                    finfo.source_name, fixed, len(expr.args)
                ),
                expr,
            )
        args: List[Operand] = []
        for position, arg in enumerate(expr.args):
            value, vtype = self.lower_expr(arg)
            if position < fixed:
                value = self.convert(value, vtype, sig.params[position], expr)
            args.append(value)
        returns_value = sig.ret is not Type.VOID
        dest = self.reg() if (want_value and returns_value) else None
        self.emit(Call(dest, finfo.ir_name, args, self.module.new_site_id()))
        if want_value and not returns_value:
            raise self.error(
                "void value of {!r} used".format(finfo.source_name), expr
            )
        return (dest if dest is not None else Imm(0)), sig.ret if returns_value else Type.INT

    def lower_alloca(self, expr: ast.CallExpr) -> Tuple[Operand, Type]:
        if len(expr.args) != 1:
            raise self.error("alloca takes exactly one argument", expr)
        size, stype = self.lower_expr(expr.args[0])
        if stype is not Type.INT:
            raise self.error("alloca size must be an integer", expr)
        dest = self.reg("dyn")
        self.emit(Alloca(dest, size))
        return dest, Type.INT


def lower_unit(unit: ast.TranslationUnit, syms: ModuleSymbols) -> Module:
    """Lower one analyzed translation unit to an IR module."""
    module = Module(syms.module_name)

    for decl in unit.decls:
        if isinstance(decl, ast.GlobalDecl) and not decl.extern:
            info = syms.globals[decl.name]
            size = decl.array_size if decl.array_size is not None else 1
            init = list(decl.init)
            if decl.type is Type.FLT:
                init = [float(v) for v in init]
            module.add_global(
                GlobalVar(
                    info.ir_name,
                    size,
                    init,
                    linkage=LINK_STATIC if decl.static else LINK_GLOBAL,
                )
            )

    for decl in unit.decls:
        if isinstance(decl, ast.FuncDef) and not decl.is_proto:
            info = syms.funcs[decl.name]
            FunctionLowerer(module, syms, decl, info).lower_body()

    # Record externs: declared functions not defined in this unit.
    for name, finfo in syms.funcs.items():
        if not finfo.defined and not finfo.builtin:
            module.declare_extern(finfo.ir_name, finfo.sig)
    return module
