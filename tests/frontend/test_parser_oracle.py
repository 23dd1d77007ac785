"""The production lexer and parser against the ones they replaced.

``reference_parser`` keeps the old lexer (whitespace and comments as
tokens of their own) and the old parser (one recursion per precedence
level).  The production front end must give the same tokens with the
same lines, the same trees, and the same errors.  AST nodes are
dataclasses, so ``==`` compares every field, line numbers included.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend import CompileError
from repro.frontend.lexer import tokenize
from repro.frontend.parser import Parser, parse_source
from repro.workloads.generator import generate_sources
from repro.workloads.suite import all_workloads

from . import reference_parser as ref

# perfbench's ``large-program`` shape.
LARGE_SHAPE = {
    "n_modules": 100, "funcs_per_module": 4, "n_globals": 25, "extern_window": 8,
}


def _sources():
    for workload in all_workloads():
        for name, text in workload.sources:
            yield "{}/{}".format(workload.name, name), text
    for seed in range(4):
        for name, text in generate_sources(seed):
            yield "seed{}/{}".format(seed, name), text


def _token_tuples(tokens):
    return [(t.kind, t.text, t.line) for t in tokens]


def _outcome(parse, source):
    """The tree ``parse`` builds, or the error it raises as (text, line)."""
    try:
        return parse(source, "m")
    except CompileError as exc:
        return ("error", str(exc), exc.line)


def _assert_same(source):
    assert _outcome(parse_source, source) == _outcome(ref.parse_source, source)


def _assert_same_program(text, module):
    tokens = tokenize(text, module)
    ref_tokens = ref.tokenize(text, module)
    assert _token_tuples(tokens) == _token_tuples(ref_tokens)
    assert (Parser(tokens, module).parse_unit()
            == ref.Parser(ref_tokens, module).parse_unit())


@pytest.mark.parametrize(
    "key,text", [pytest.param(key, text, id=key) for key, text in _sources()]
)
def test_programs_lex_and_parse_identically(key, text):
    _assert_same_program(text, key)


def test_large_program_parses_identically():
    for name, text in generate_sources(0, **LARGE_SHAPE):
        _assert_same_program(text, name)


MALFORMED = [
    # an error after a multi-line block comment
    "int main() {\n  /* one\n     two\n     three */\n  return 1 + ;\n}\n",
    # an unterminated block comment lexes as '/' '*'
    "int main() { return 0; }\n\n/* never closed\nint x;\n",
    "int main() {\n  return 1 @ 2;\n}\n",
    "int main() { return '\\q'; }",
    # a char literal holding a newline, then an error on the next line
    "int main() { int c = '\n'; return c + ; }",
    "int main() {\n  int a = (1 + 2;\n  return a;\n}\n",
    "int main() {\n  1 = 2;\n  return 0;\n}\n",
    "int main() {\n  return 0;\n",
    "int main() { return 0; } // trailing comment, no newline",
    "int f(void) { return a ? b : ; }",
    "int g() { switch (x) { y = 1; } }",
    "int h() { return f(1, 2; }",
]


@pytest.mark.parametrize("source", MALFORMED)
def test_malformed_inputs_fail_identically(source):
    _assert_same(source)


# Expressions over every binary, unary, ternary and assignment operator,
# with parentheses, postfix forms and whitespace that moves lines.
_BINARY = ["||", "&&", "|", "^", "&", "==", "!=", "<", "<=", ">", ">=",
           "<<", ">>", "+", "-", "*", "/", "%"]
_UNARY = ["-", "!", "~", "*", "&", "++", "--", "+"]
_ASSIGN = ["=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="]
_GAPS = st.sampled_from([" ", "", "\n", " /* c\n */ ", " // c\n"])
_ATOMS = st.sampled_from(["a", "b", "c", "0", "7", "0x1F", "1.5", "'q'", "'\\n'"])


def _combine(children):
    # Runs of binary operators without parentheses, where precedence and
    # associativity decide the tree; the gaps between tokens move lines.
    chain = st.builds(
        lambda first, rest: first + "".join(g1 + op + g2 + e for g1, op, g2, e in rest),
        children,
        st.lists(st.tuples(_GAPS, st.sampled_from(_BINARY), _GAPS, children),
                 min_size=1, max_size=4),
    )
    unary = st.builds(lambda op, e: op + " " + e, st.sampled_from(_UNARY), children)
    postfix = st.builds(lambda e, op: e + op, children,
                        st.sampled_from(["++", "--", "[a]", "(b, c)", "()"]))
    ternary = st.builds(lambda c, t, e: "{} ? {} : {}".format(c, t, e),
                        children, children, children)
    assign = st.builds(lambda t, op, e: "{} {} {}".format(t, op, e),
                       st.sampled_from(["a", "*b", "c[1]"]), st.sampled_from(_ASSIGN),
                       children)
    paren = children.map(lambda e: "(" + e + ")")
    return st.one_of(chain, unary, postfix, ternary, assign, paren)


EXPRESSIONS = st.recursive(_ATOMS, _combine, max_leaves=12)


@pytest.mark.parametrize("first", _BINARY)
def test_every_operator_pair_parses_identically(first):
    for second in _BINARY:
        _assert_same("int f() {{ return a {} b {} c; }}".format(first, second))
        _assert_same(
            "int f() {{ x -= a {} b ? c {} d : e; }}".format(first, second)
        )


@settings(max_examples=200, deadline=None)
@given(EXPRESSIONS)
def test_expressions_parse_identically(expr):
    source = "int f() {\n  x = " + expr + ";\n  return " + expr + ";\n}\n"
    assert _token_tuples(tokenize(source)) == _token_tuples(ref.tokenize(source))
    _assert_same(source)
