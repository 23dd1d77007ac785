"""Recursive-descent parser for minic.

Produces a :class:`~repro.frontend.ast.TranslationUnit`.  The grammar is
a C subset: declarations, the usual statement forms, and the full
expression precedence ladder with assignment, ternary, short-circuit
logicals, and C operator precedence.  Pointers are word-granular, so
``*`` in a declarator is accepted and ignored (all scalars are one
word); declared pointer depth does not change the type.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from ..ir.types import Type
from . import ast
from .errors import CompileError
from .lexer import Token, tokenize

_QUALIFIERS = ("static", "extern", "inline", "noinline", "noclone", "reassoc")
_TYPES = {"int": Type.INT, "float": Type.FLT, "void": Type.VOID}
_ASSIGN_OPS = {
    "=": "",
    "+=": "add",
    "-=": "sub",
    "*=": "mul",
    "/=": "div",
    "%=": "mod",
    "&=": "and",
    "|=": "or",
    "^=": "xor",
    "<<=": "shl",
    ">>=": "shr",
}


# Binary operators by precedence level, loosest first.
_BINARY_LEVELS: List[Tuple[str, ...]] = [
    ("||",),
    ("&&",),
    ("|",),
    ("^",),
    ("&",),
    ("==", "!="),
    ("<", "<=", ">", ">="),
    ("<<", ">>"),
    ("+", "-"),
    ("*", "/", "%"),
]
_BINARY_PRECEDENCE: Dict[str, int] = {
    op: level for level, ops in enumerate(_BINARY_LEVELS) for op in ops
}
_BINOP_NAMES = {
    "|": "or", "^": "xor", "&": "and",
    "==": "eq", "!=": "ne", "<": "lt", "<=": "le", ">": "gt", ">=": "ge",
    "<<": "shl", ">>": "shr",
    "+": "add", "-": "sub", "*": "mul", "/": "div", "%": "mod",
}
# The token kinds ``check``/``accept``/``expect`` match by text.
_KEYWORD_KINDS = ("punct", "kw")


class Parser:
    def __init__(self, tokens: List[Token], module: str = ""):
        self.tokens = tokens
        self.pos = 0
        self.module = module

    # ------------------------------------------------------------------
    # Token plumbing
    # ------------------------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        if offset:
            return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]
        # ``advance`` never moves past the eof token, so ``pos`` is
        # always a valid index.
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def check(self, text: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.text == text and tok.kind in _KEYWORD_KINDS

    def accept(self, text: str) -> bool:
        tok = self.tokens[self.pos]
        if tok.text == text and tok.kind in _KEYWORD_KINDS:
            self.pos += 1  # a punct or kw token is never the eof
            return True
        return False

    def expect(self, text: str) -> Token:
        if not self.check(text):
            tok = self.peek()
            raise CompileError(
                "expected {!r}, found {!r}".format(text, tok.text or "<eof>"),
                tok.line,
                self.module,
            )
        return self.advance()

    def expect_name(self) -> Token:
        tok = self.peek()
        if tok.kind != "name":
            raise CompileError(
                "expected identifier, found {!r}".format(tok.text or "<eof>"),
                tok.line,
                self.module,
            )
        return self.advance()

    def error(self, message: str) -> CompileError:
        return CompileError(message, self.peek().line, self.module)

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------

    def parse_unit(self) -> ast.TranslationUnit:
        unit = ast.TranslationUnit()
        while self.peek().kind != "eof":
            unit.decls.extend(self.parse_topdecl())
        return unit

    def parse_topdecl(self) -> List[Union[ast.FuncDef, ast.GlobalDecl]]:
        line = self.peek().line
        quals: List[str] = []
        while self.peek().kind == "kw" and self.peek().text in _QUALIFIERS:
            quals.append(self.advance().text)
        base = self.parse_type()
        self._skip_stars()
        name_tok = self.expect_name()

        if self.check("("):
            func = self.parse_func_rest(name_tok.text, base, tuple(quals), line)
            return [func]

        # Global variable declarator list.
        if base is Type.VOID:
            raise CompileError("variable of type void", line, self.module)
        decls: List[ast.GlobalDecl] = []
        is_static = "static" in quals
        is_extern = "extern" in quals
        bad = [q for q in quals if q not in ("static", "extern")]
        if bad:
            raise CompileError(
                "qualifier {!r} is not valid on a variable".format(bad[0]),
                line,
                self.module,
            )
        while True:
            decls.append(self.parse_global_declarator(name_tok.text, base, is_static, is_extern, line))
            if not self.accept(","):
                break
            self._skip_stars()
            name_tok = self.expect_name()
        self.expect(";")
        return decls

    def parse_type(self) -> Type:
        tok = self.peek()
        if tok.kind == "kw" and tok.text in _TYPES:
            self.advance()
            return _TYPES[tok.text]
        raise self.error("expected type, found {!r}".format(tok.text or "<eof>"))

    def _skip_stars(self) -> int:
        depth = 0
        while self.accept("*"):
            depth += 1
        return depth

    def parse_global_declarator(
        self, name: str, base: Type, static: bool, extern: bool, line: int
    ) -> ast.GlobalDecl:
        array_size: Optional[int] = None
        if self.accept("["):
            array_size = self.parse_const_int()
            self.expect("]")
        init: List[Union[int, float]] = []
        if self.accept("="):
            if self.accept("{"):
                while not self.check("}"):
                    init.append(self.parse_const_value(base))
                    if not self.accept(","):
                        break
                self.expect("}")
                if array_size is None:
                    array_size = len(init)
            else:
                init.append(self.parse_const_value(base))
        if array_size is not None and len(init) > array_size:
            raise CompileError(
                "too many initializers for {}[{}]".format(name, array_size),
                line,
                self.module,
            )
        return ast.GlobalDecl(name, base, array_size, init, static, extern, line)

    def parse_const_int(self) -> int:
        negative = self.accept("-")
        tok = self.peek()
        if tok.kind != "int":
            raise self.error("expected integer constant")
        self.advance()
        value = int(tok.text, 0)
        return -value if negative else value

    def parse_const_value(self, base: Type) -> Union[int, float]:
        negative = self.accept("-")
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            value: Union[int, float] = int(tok.text, 0)
        elif tok.kind == "float":
            self.advance()
            value = float(tok.text)
        else:
            raise self.error("expected numeric constant")
        if base is Type.FLT:
            value = float(value)
        elif isinstance(value, float):
            raise self.error("float initializer for int variable")
        return -value if negative else value

    def parse_func_rest(
        self, name: str, ret: Type, quals: Tuple[str, ...], line: int
    ) -> ast.FuncDef:
        self.expect("(")
        params: List[ast.Param] = []
        varargs = False
        if self.check("void") and self.peek(1).text == ")":
            self.advance()
        elif not self.check(")"):
            while True:
                if self.accept("..."):
                    varargs = True
                    break
                ptype = self.parse_type()
                self._skip_stars()
                if ptype is Type.VOID:
                    raise self.error("parameter of type void")
                ptok = self.expect_name()
                params.append(ast.Param(ptok.text, ptype, ptok.line))
                if not self.accept(","):
                    break
        self.expect(")")
        if self.accept(";"):
            return ast.FuncDef(name, ret, params, varargs, None, quals, line)
        body = self.parse_block()
        return ast.FuncDef(name, ret, params, varargs, body, quals, line)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def parse_block(self) -> ast.Block:
        start = self.expect("{")
        stmts: List[ast.Stmt] = []
        while not self.check("}"):
            if self.peek().kind == "eof":
                raise CompileError("unterminated block", start.line, self.module)
            stmts.append(self.parse_stmt())
        self.expect("}")
        return ast.Block(start.line, stmts)

    def parse_stmt(self) -> ast.Stmt:
        tok = self.peek()
        if tok.kind == "punct" and tok.text == "{":
            return self.parse_block()
        if tok.kind == "kw":
            if tok.text in _TYPES:
                return self.parse_local_decl()
            if tok.text == "if":
                return self.parse_if()
            if tok.text == "while":
                return self.parse_while()
            if tok.text == "do":
                return self.parse_do_while()
            if tok.text == "for":
                return self.parse_for()
            if tok.text == "switch":
                return self.parse_switch()
            if tok.text == "return":
                self.advance()
                value = None if self.check(";") else self.parse_expr()
                self.expect(";")
                return ast.Return(tok.line, value)
            if tok.text == "break":
                self.advance()
                self.expect(";")
                return ast.Break(tok.line)
            if tok.text == "continue":
                self.advance()
                self.expect(";")
                return ast.Continue(tok.line)
        if self.accept(";"):
            return ast.Block(tok.line, [])
        expr = self.parse_expr()
        self.expect(";")
        return ast.ExprStmt(tok.line, expr)

    def parse_local_decl(self) -> ast.Stmt:
        line = self.peek().line
        base = self.parse_type()
        if base is Type.VOID:
            raise self.error("variable of type void")
        decls: List[ast.Stmt] = []
        while True:
            self._skip_stars()
            name_tok = self.expect_name()
            array_size: Optional[int] = None
            init: Optional[ast.Expr] = None
            if self.accept("["):
                array_size = self.parse_const_int()
                self.expect("]")
            if self.accept("="):
                init = self.parse_assignment()
            decls.append(ast.LocalDecl(line, name_tok.text, base, array_size, init))
            if not self.accept(","):
                break
        self.expect(";")
        if len(decls) == 1:
            return decls[0]
        return ast.Block(line, decls)

    def parse_if(self) -> ast.If:
        tok = self.expect("if")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then_body = self.parse_stmt()
        else_body = self.parse_stmt() if self.accept("else") else None
        return ast.If(tok.line, cond, then_body, else_body)

    def parse_while(self) -> ast.While:
        tok = self.expect("while")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        return ast.While(tok.line, cond, self.parse_stmt())

    def parse_do_while(self) -> ast.DoWhile:
        tok = self.expect("do")
        body = self.parse_stmt()
        self.expect("while")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        self.expect(";")
        return ast.DoWhile(tok.line, body, cond)

    def parse_for(self) -> ast.For:
        tok = self.expect("for")
        self.expect("(")
        init: Optional[ast.Stmt] = None
        if not self.accept(";"):
            if self.peek().kind == "kw" and self.peek().text in _TYPES:
                init = self.parse_local_decl()
            else:
                init = ast.ExprStmt(self.peek().line, self.parse_expr())
                self.expect(";")
        cond = None if self.check(";") else self.parse_expr()
        self.expect(";")
        step = None if self.check(")") else self.parse_expr()
        self.expect(")")
        return ast.For(tok.line, init, cond, step, self.parse_stmt())

    def parse_switch(self) -> ast.Switch:
        tok = self.expect("switch")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        self.expect("{")
        cases: List[ast.SwitchCase] = []
        seen_values = set()
        seen_default = False
        while not self.check("}"):
            label_tok = self.peek()
            if self.accept("case"):
                value = self.parse_case_value()
                if value in seen_values:
                    raise CompileError(
                        "duplicate case {}".format(value), label_tok.line, self.module
                    )
                seen_values.add(value)
                self.expect(":")
                cases.append(ast.SwitchCase(value, [], label_tok.line))
            elif self.accept("default"):
                if seen_default:
                    raise CompileError(
                        "duplicate default label", label_tok.line, self.module
                    )
                seen_default = True
                self.expect(":")
                cases.append(ast.SwitchCase(None, [], label_tok.line))
            elif cases:
                cases[-1].stmts.append(self.parse_stmt())
            else:
                raise CompileError(
                    "statement before first case label", label_tok.line, self.module
                )
        self.expect("}")
        return ast.Switch(tok.line, cond, cases)

    def parse_case_value(self) -> int:
        negative = self.accept("-")
        tok = self.peek()
        if tok.kind != "int":
            raise self.error("case label must be an integer constant")
        self.advance()
        value = int(tok.text, 0)
        return -value if negative else value

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def parse_expr(self) -> ast.Expr:
        return self.parse_assignment()

    def parse_assignment(self) -> ast.Expr:
        lhs = self.parse_conditional()
        tok = self.tokens[self.pos]
        if tok.kind == "punct" and tok.text in _ASSIGN_OPS:
            self.advance()
            if not isinstance(lhs, (ast.Name, ast.Index)) and not (
                isinstance(lhs, ast.Unary) and lhs.op == "*"
            ):
                raise CompileError("invalid assignment target", tok.line, self.module)
            value = self.parse_assignment()
            return ast.Assign(tok.line, _ASSIGN_OPS[tok.text], lhs, value)
        return lhs

    def parse_conditional(self) -> ast.Expr:
        cond = self.parse_binary(0)
        if self.check("?"):
            tok = self.advance()
            then_expr = self.parse_expr()
            self.expect(":")
            else_expr = self.parse_conditional()
            return ast.Conditional(tok.line, cond, then_expr, else_expr)
        return cond

    def parse_binary(self, level: int) -> ast.Expr:
        """A binary expression whose operators all bind at ``level`` or
        tighter, by precedence climbing.  Every level is
        left-associative: the right operand only takes tighter
        operators, so the loop folds equal ones to the left."""
        lhs = self.parse_unary()
        while True:
            tok = self.tokens[self.pos]
            # Only punctuation spells an operator, so the text decides.
            prec = _BINARY_PRECEDENCE.get(tok.text, -1)
            if prec < level:
                return lhs
            self.pos += 1
            rhs = self.parse_binary(prec + 1)
            if tok.text in ("||", "&&"):
                lhs = ast.ShortCircuit(tok.line, tok.text, lhs, rhs)
            else:
                lhs = ast.Binary(tok.line, _BINOP_NAMES[tok.text], lhs, rhs)

    def parse_unary(self) -> ast.Expr:
        tok = self.tokens[self.pos]
        if tok.kind == "punct":
            if tok.text in ("-", "!", "~", "*", "&"):
                self.advance()
                return ast.Unary(tok.line, tok.text, self.parse_unary())
            if tok.text in ("++", "--"):
                self.advance()
                target = self.parse_unary()
                return ast.IncDec(tok.line, tok.text, target, prefix=True)
            if tok.text == "+":
                self.advance()
                return self.parse_unary()
        return self.parse_postfix()

    def parse_postfix(self) -> ast.Expr:
        expr = self.parse_primary()
        while True:
            tok = self.tokens[self.pos]
            # Only punctuation continues a postfix expression.
            if tok.kind != "punct":
                return expr
            text = tok.text
            if text == "(":
                self.pos += 1
                args: List[ast.Expr] = []
                if not self.check(")"):
                    while True:
                        args.append(self.parse_assignment())
                        if not self.accept(","):
                            break
                self.expect(")")
                expr = ast.CallExpr(tok.line, expr, args)
            elif text == "[":
                self.pos += 1
                index = self.parse_expr()
                self.expect("]")
                expr = ast.Index(tok.line, expr, index)
            elif text == "++" or text == "--":
                self.pos += 1
                expr = ast.IncDec(tok.line, text, expr, prefix=False)
            else:
                return expr

    def parse_primary(self) -> ast.Expr:
        tok = self.tokens[self.pos]
        kind = tok.kind
        # A name, int or float token is never the eof, so ``pos`` may
        # step past it directly.
        if kind == "name":
            self.pos += 1
            return ast.Name(tok.line, tok.text)
        if kind == "int":
            self.pos += 1
            return ast.IntLit(tok.line, int(tok.text, 0))
        if kind == "float":
            self.pos += 1
            return ast.FloatLit(tok.line, float(tok.text))
        if self.accept("("):
            expr = self.parse_expr()
            self.expect(")")
            return expr
        raise self.error("expected expression, found {!r}".format(tok.text or "<eof>"))


def parse_source(source: str, module: str = "") -> ast.TranslationUnit:
    """Tokenize and parse one minic source file."""
    return Parser(tokenize(source, module), module).parse_unit()
