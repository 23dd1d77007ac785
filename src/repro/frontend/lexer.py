"""Lexer for minic, the C-subset front-end language.

minic is the reproduction's stand-in for the paper's C sources: it has
globals and file statics, arrays, word-granular pointers, function
pointers, varargs, floats, and the full C statement/expression core —
enough to write the SPEC-like workloads and to exercise every legality
screen in HLO (varargs, arity mismatches, alloca, statics promotion).
"""

from __future__ import annotations

import re
from typing import List

from .errors import CompileError

KEYWORDS = frozenset(
    [
        "int", "float", "void",
        "if", "else", "while", "for", "do", "return", "break", "continue",
        "switch", "case", "default",
        "static", "extern", "inline", "noinline", "noclone", "reassoc",
    ]
)

# Whitespace and comments between tokens, skipped in one match.  An
# unterminated ``/*`` is not a comment: it lexes as ``/`` then ``*``.
_SKIP_RE = re.compile(r"(?:\s+|//[^\n]*|/\*.*?\*/)*", re.DOTALL)

# Token kinds beyond keywords: NAME, INT, FLOAT, CHAR, punctuation, EOF.
_TOKEN_RE = re.compile(
    r"""
    (?P<float>(?:\d+\.\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+))
  | (?P<int>0[xX][0-9a-fA-F]+|\d+)
  | (?P<char>'(?:\\.|[^'\\])')
  | (?P<name>[A-Za-z_]\w*)
  | (?P<punct>\.\.\.|<<=|>>=|\|\||&&|==|!=|<=|>=|<<|>>|\+\+|--|\+=|-=|\*=|/=|%=|&=|\|=|\^=|[-+*/%<>=!~&|^?:;,.(){}\[\]])
    """,
    re.VERBOSE | re.DOTALL,
)

_ESCAPES = {"n": 10, "t": 9, "r": 13, "0": 0, "\\": 92, "'": 39, '"': 34}


class Token:
    """One token: ``kind`` is 'name', 'int', 'float', 'kw', 'punct' or
    'eof'; ``line`` is the 1-based line it starts on."""

    __slots__ = ("kind", "text", "line")

    def __init__(self, kind: str, text: str, line: int):
        self.kind = kind
        self.text = text
        self.line = line

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return "{}({!r})@{}".format(self.kind, self.text, self.line)


def tokenize(source: str, module: str = "") -> List[Token]:
    """Tokenize minic source, raising :class:`CompileError` on bad input."""
    skip = _SKIP_RE.match
    match = _TOKEN_RE.match
    count = source.count
    tokens: List[Token] = []
    append = tokens.append
    line = 1
    last = 0  # where the previous token starts
    pos = 0
    n = len(source)
    while True:
        start = skip(source, pos).end()
        # The newlines since the previous token's start: those inside
        # it (a char literal may hold one) and those skipped after it.
        line += count("\n", last, start)
        last = start
        if start == n:
            break
        m = match(source, start)
        if m is None:
            raise CompileError(
                "unexpected character {!r}".format(source[start]), line, module
            )
        kind = m.lastgroup
        text = m.group()
        if kind == "name":
            append(Token("kw" if text in KEYWORDS else "name", text, line))
        elif kind == "char":
            append(Token("int", str(_char_value(text, line, module)), line))
        else:
            append(Token(kind, text, line))
        pos = m.end()
    append(Token("eof", "", line))
    return tokens


def _char_value(text: str, line: int, module: str) -> int:
    inner = text[1:-1]
    if inner.startswith("\\"):
        esc = inner[1]
        if esc not in _ESCAPES:
            raise CompileError("unknown escape {!r}".format(inner), line, module)
        return _ESCAPES[esc]
    return ord(inner)
