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

# One match per token: the whitespace and comments before it (group 1),
# then the token in the group of its kind: name (keywords included),
# float, int, char, punct, or one unexpected character.  At the end of
# the source only the skip matches, and every token group is empty.
# Because some alternative always matches after any skip, the greedy
# skip never gives back part of a comment to make a token fit.  An
# unterminated ``/*`` is not a comment: it lexes as ``/`` then ``*``.
_TOKEN_RE = re.compile(
    r"""
    ((?:\s+|//[^\n]*|/\*.*?\*/)*)
    (?:
      ([A-Za-z_]\w*)
    | (\d+\.\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+)
    | (0[xX][0-9a-fA-F]+|\d+)
    | ('(?:\\.|[^'\\])')
    | (\.\.\.|<<=|>>=|\|\||&&|==|!=|<=|>=|<<|>>|\+\+|--|\+=|-=|\*=|/=|%=|&=|\|=|\^=|[-+*/%<>=!~&|^?:;,.(){}\[\]])
    | \Z
    | (.)
    )
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
    tokens: List[Token] = []
    append = tokens.append
    line = 1
    # ``findall`` makes the whole list in one call, without a match
    # object per token; its first all-empty token marks the end.
    for skip, name, flt, num, char, punct, bad in _TOKEN_RE.findall(source):
        if "\n" in skip:
            line += skip.count("\n")
        if name:
            append(Token("kw" if name in KEYWORDS else "name", name, line))
        elif punct:
            append(Token("punct", punct, line))
        elif num:
            append(Token("int", num, line))
        elif flt:
            append(Token("float", flt, line))
        elif char:
            append(Token("int", str(_char_value(char, line, module)), line))
            line += char.count("\n")  # a char literal may hold a newline
        elif bad:
            raise CompileError("unexpected character {!r}".format(bad), line, module)
        else:
            break
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
