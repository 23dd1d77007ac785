"""The fast engine's fused parts, on their slow paths.

The fast engine compiles a conditional branch together with the compare
just before it that computes its condition, and a jump together with a
move just before it, into one part that runs the compare or the move
inline (``repro.interp.engine``, ``_make_branch`` and ``_make_jump``).
Only int operands take the compare's inline code, and only a set
register the move's; any other operand, and every trap, goes through
the instruction's own closure.  Each program here sends a fused part
one of those ways: a compare that reads a code pointer, an unset
register or a float, a move from an unset register, and a step limit
that lands on a fused instruction or on its branch or jump.  Each runs
on both engines under every sink family of the fuzz matrix and under a
``RecordingSink``, and the fast engine's outcome (result or trap,
message and steps) and the sink's whole state must be the reference
engine's.  Each program's plan is also checked to fuse the parts it is
about, so the cases keep reaching the fused code.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.frontend import compile_program
from repro.interp import Interpreter, RecordingSink
from repro.interp.engine import sink_mode
from repro.interp.errors import ExecError
from repro.interp.fuzz import SINK_KINDS, observe
from repro.ir import parse_program

KINDS = SINK_KINDS + ("recording",)

HEADER = """\
module "m"
global $g [2] global
proc @inc(%x: int) -> int global {
entry:
  %t = add %x, 1
  ret %t
}
"""

# name: (@main's body, @main's fused parts as (compare-branch,
# move-jump), the reference outcome's kind and message or output).
# The loads split a data-access sink's fetch groups, so a trap's
# late fetches are a group of their own.
CASES = {
    "code-pointer-eq-ne": (
        """
        entry:
          %f = mov @inc
          %h = mov @main
          store [$g], %f
          %l = load [$g]
          %c = eq %f, %l
          br %c, same, other
        same:
          %d = ne %f, %h
          br %d, differ, other
        differ:
          call @print_int(%c) #0
          call @print_int(%d) #1
          ret 0
        other:
          ret 1
        """,
        (2, 0),
        ("result", 0, (1, 1)),
    ),
    "code-pointer-lt": (
        """
        entry:
          %f = mov @inc
          %h = mov @main
          %p = load [$g]
          %a = add %p, 1
          %c = lt %f, %h
          br %c, yes, no
        yes:
          ret 1
        no:
          ret 0
        """,
        (1, 0),
        ("execerror", "arithmetic on code pointer at @main:entry[4]"),
    ),
    "unset-register-register": (
        """
        entry:
          %p = load [$g]
          %a = add %p, 1
          %c = le %a, %never
          br %c, yes, no
        yes:
          ret 1
        no:
          ret 0
        """,
        (1, 0),
        ("execerror", "read of unset register %never in @main"),
    ),
    "unset-register-int": (
        """
        entry:
          %p = load [$g]
          %a = add %p, 1
          %c = gt %never, 3
          br %c, yes, no
        yes:
          ret 1
        no:
          ret 0
        """,
        (1, 0),
        ("execerror", "read of unset register %never in @main"),
    ),
    "float-register-register": (
        """
        entry:
          %x = mov 1.5
          %y = mov 2.5
          %p = load [$g]
          %c = lt %x, %y
          br %c, yes, no
        yes:
          call @print_int(%c) #0
          ret 0
        no:
          ret 1
        """,
        (1, 0),
        ("result", 0, (1,)),
    ),
    "float-register-int": (
        """
        entry:
          %x = mov 1.5
          %p = load [$g]
          %a = add %p, 1
          %c = ge %x, 2
          br %c, yes, no
        yes:
          ret 1
        no:
          ret 0
        """,
        (1, 0),
        ("execerror", "mixed int/float operands for ge at @main:entry[3]"),
    ),
    "move-from-unset-register": (
        """
        entry:
          %p = load [$g]
          %a = add %p, 1
          %b = mov %never
          jmp next
        next:
          ret %b
        """,
        (0, 1),
        ("execerror", "read of unset register %never in @main"),
    ),
}

# A counted loop with both compare kinds and both move kinds fused.
# ``done`` prints both compares' registers, so a fused compare that
# does not write its register traps there.
LOOP = """
entry:
  %i = mov 0
  %n = mov 3
  %s = mov 0
  jmp head
head:
  %c = lt %i, %n
  br %c, body, done
body:
  %p = load [$g]
  %s = add %p, %i
  store [$g], %s
  %e = eq %i, 1
  br %e, one, step
one:
  call @print_int(%e) #0
  jmp step
step:
  %j = add %i, 1
  %i = mov %j
  jmp head
done:
  call @print_int(%c) #1
  call @print_int(%e) #2
  ret %s
"""

# Each fused instruction of LOOP, and its branch or jump.
LOOP_POSITIONS = [
    ("entry", 2), ("entry", 3),
    ("head", 0), ("head", 1),
    ("body", 3), ("body", 4),
    ("step", 1), ("step", 2),
]


def _program(body):
    return parse_program(HEADER + "proc @main() -> int global {" + textwrap.dedent(body) + "}\n")


def _fused(program):
    """@main's fused parts, ``(compare-branch, move-jump)``, from a
    fresh no-sink plan."""
    interp = Interpreter(program, engine="fast")
    try:
        interp.run()
    except ExecError:
        pass
    fused = program._plan_cache.plans["main", sink_mode(None)].fused
    assert interp.fused_parts == sum(fused.values())
    return fused["compare-branch"], fused["move-jump"]


def _same_on_both_engines(program, kind, max_steps=10_000):
    want = observe(program, [], "reference", kind, max_steps)
    got = observe(program, [], "fast", kind, max_steps)
    assert got[0] == want[0]
    assert got[1] == want[1]
    return want[0]


@pytest.mark.parametrize("case", sorted(CASES))
def test_each_case_fuses_the_parts_it_is_about(case):
    body, fused, _outcome = CASES[case]
    assert _fused(_program(body)) == fused


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_a_fused_part_on_its_slow_path_matches_the_reference(case, kind):
    body, _fused_parts, expected = CASES[case]
    outcome = _same_on_both_engines(_program(body), kind)
    assert outcome[: len(expected)] == expected


@pytest.mark.parametrize(
    "case, index", [("code-pointer-lt", 4), ("unset-register-register", 2)]
)
def test_a_trap_in_a_fused_compare_delivers_its_late_fetches(case, index):
    """The trap comes before the fused part appends its token: the
    fetches of the compare's group, the add after the load and the
    compare at ``index``, arrive as direct ``on_instr`` calls after the
    load's access, as on the reference engine."""
    program = _program(CASES[case][0])
    streams = {}
    for engine in ("reference", "fast"):
        sink = RecordingSink()
        with pytest.raises(ExecError):
            Interpreter(program, sink=sink, engine=engine).run()
        streams[engine] = sink.events
    assert streams["fast"] == streams["reference"]
    assert streams["fast"][-3][0] == "mem"
    assert streams["fast"][-2:] == [
        ("instr", "main", "entry", index - 1, "BinOp"),
        ("instr", "main", "entry", index, "BinOp"),
    ]


def test_the_loop_fuses_every_kind():
    assert _fused(_program(LOOP)) == (2, 2)


@pytest.mark.parametrize("kind", KINDS)
def test_the_loop_matches_the_reference(kind):
    assert _same_on_both_engines(_program(LOOP), kind) == (
        "result", 3, (1, 0, 0), 41, 3, {},
    )


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("label, index", LOOP_POSITIONS)
def test_a_step_limit_on_a_fused_part_matches_the_reference(label, index, kind):
    """Every step at which LOOP fetches the instruction is a limit that
    lands on it: on the fused compare or move, or on its branch or
    jump."""
    program = _program(LOOP)
    sink = RecordingSink()
    Interpreter(program, sink=sink, engine="reference").run()
    fetched = [e for e in sink.events if e[0] == "instr"]
    limits = [k for k, e in enumerate(fetched) if e[2:4] == (label, index)]
    assert limits
    for max_steps in limits:
        outcome = _same_on_both_engines(program, kind, max_steps)
        assert outcome == (
            "steplimit",
            "step limit {} exceeded at @main:{}[{}]".format(max_steps, label, index),
            max_steps + 1,
        )


def test_a_counted_loops_plan_reports_both_kinds():
    """``Interpreter.fused_parts`` counts the fused parts of the plans a
    run compiled."""
    program = compile_program([("main", """
        int main() {
          int s = 0;
          for (int i = 0; i < input(0); i++) { s = s + i; }
          print_int(s);
          return 0;
        }
        """)])
    interp = Interpreter(program, [10])
    interp.run()
    fused = program._plan_cache.plans["main", sink_mode(None)].fused
    assert fused["compare-branch"] >= 1
    assert fused["move-jump"] >= 1
    assert interp.fused_parts == sum(fused.values())
    again = Interpreter(program, [10])
    again.run()
    assert again.fused_parts == 0  # served from the plan cache
