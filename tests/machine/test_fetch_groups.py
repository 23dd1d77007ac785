"""The PA8000 model's fetch-group tokens on the fast engine.

On the fast engine :class:`PA8000Model` compiles each group of fetches
into one token (``EventSink.fetch_tokens``) that binds lines, tag
slots, spill rates and predictor slots, and applies the tokens from
the run's tape in its ``drain`` loop; the reference engine calls
``on_instr`` per instruction, which drains a one-fetch token.  Each
case here compares a fast-engine simulation with a fresh
reference-engine run of the same program: a second model on the same
program, which compiles its own plans, plans outdated by an edit, and
runs cut by a trap or the step limit inside a group of a procedure
that spills.  And no plan holds a sink or a tape, for every sink
family.
"""

from __future__ import annotations

import gc
import types
import weakref

import pytest

from repro.core import HLOConfig, run_hlo
from repro.frontend import compile_program
from repro.interp import Interpreter
from repro.interp.errors import ExecError
from repro.interp.fuzz import PA8000_SMALL, SINK_KINDS, _make_sink
from repro.interp.interpreter import DEFAULT_MAX_STEPS
from repro.ir.instructions import Load, Mov, Store
from repro.ir.values import Imm, Reg
from repro.machine import MachineConfig, PA8000Model

CONFIGS = {"default": MachineConfig(), "small": MachineConfig(**PA8000_SMALL)}

LOOPS = [("m", """
int leaf(int x) { return x * 3 + 1; }
int caller(int x) { return leaf(x) + leaf(x + 1); }
int later(int x) {
  int s = 0;
  for (int i = 0; i < x; i++) s = s + i * 2;
  return s;
}
int main() {
  int t = 0;
  for (int i = 0; i < 30; i++) t = t + caller(i) + later(i % 7);
  print_int(t);
  return 0;
}
""")]

# @helper has far more registers than PA8000_SMALL's file of 4, so it
# spills.  Its one block is one part; the division sits three fetches
# before the load of g[k], inside the load's group, and the store ends
# the next group.
SPILLING = """
int g[4];
int helper(int x, int k) {
  int a = x + 1; int b = a * 2; int c = b - x;
  int y = 100 / x;
  int v = g[k];
  g[2] = v + y;
  return a + b + c + y + v;
}
int main() {
  int i = 3;
  while (i > 0 - 2) { print_int(helper(i + X, K)); i = i - 1; }
  return 0;
}
"""


def spilling(x: int, k: str):
    """@helper traps at the division when ``i + x`` reaches 0, and at
    the load when ``k`` is a negative address."""
    source = SPILLING.replace("X", str(x)).replace("K", k)
    return compile_program([("m", source)])


def run(program, engine, config, max_steps=DEFAULT_MAX_STEPS):
    """(outcome, steps, metrics) of one run on a fresh model, and the
    interpreter that ran it."""
    model = PA8000Model(program, config)
    interp = Interpreter(program, [], sink=model, max_steps=max_steps, engine=engine)
    try:
        outcome = interp.run().behavior()
    except ExecError as exc:
        outcome = (type(exc).__name__, str(exc))
    return (outcome, interp.steps, model.metrics(0)), interp


def reference(program, config, max_steps=DEFAULT_MAX_STEPS):
    return run(program, "reference", config, max_steps)[0]


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_a_second_model_compiles_its_own_plans(config):
    program = compile_program(LOOPS)
    first, _ = run(program, "fast", CONFIGS[config])
    second, interp = run(program, "fast", CONFIGS[config])
    assert interp.plans_compiled > 0
    assert first == second == reference(program, CONFIGS[config])


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_a_run_after_hlo_edits_the_program(config):
    program = compile_program(LOOPS)
    run(program, "fast", CONFIGS[config])
    run_hlo(program, HLOConfig())
    got, interp = run(program, "fast", CONFIGS[config])
    assert interp.plans_compiled > 0
    assert got == reference(program, CONFIGS[config])


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_a_moved_procedure_gets_its_new_addresses(config):
    # One instruction more in the first procedure moves every later one
    # without changing its text.
    program = compile_program(LOOPS)
    run(program, "fast", CONFIGS[config])
    leaf = program.proc("leaf")
    leaf.blocks[leaf.entry].instrs.insert(0, Mov(Reg("pad"), Imm(0)))
    got, _ = run(program, "fast", CONFIGS[config])
    assert got == reference(program, CONFIGS[config])


def test_a_model_built_before_an_edit_leaves_later_models_exact():
    # Merging four registers of @helper into one lowers its spill rate
    # without changing any block's length, so the layout is the same.  A
    # file of 14 registers leaves the rate below its cap before and after
    # the edit.  The model built before the edit runs with the old rate;
    # a model built after it must not run that model's plans.
    config = MachineConfig(**dict(PA8000_SMALL, reg_file=14))
    program = spilling(10, "1")
    stale = PA8000Model(program, config)
    helper = program.proc("helper")
    regs = len(helper.reg_names())
    merged = {name: Reg("t13") for name in ("t14", "t15", "t16")}

    def merge(op):
        return merged.get(op.name, op) if isinstance(op, Reg) else op

    for instr in helper.instructions():
        instr.map_operands(merge)
        if instr.dest is not None:
            instr.dest = merge(instr.dest)
    assert len(helper.reg_names()) == regs - 3
    Interpreter(program, [], sink=stale).run()
    assert run(program, "fast", config)[0] == reference(program, config)


def test_a_spilling_group_ends_at_each_load_and_store():
    program = spilling(0, "1")
    helper = program.proc("helper")
    label = helper.entry
    instrs = helper.blocks[label].instrs
    events = [(helper, label, index, instr) for index, instr in enumerate(instrs)]
    counts = [count for count, _token in PA8000Model(program).fetch_tokens(events)]
    assert counts == [len(instrs)]  # the default register file: no spills
    counts = [
        count
        for count, _token in PA8000Model(program, CONFIGS["small"]).fetch_tokens(events)
    ]
    ends = [i for i, instr in enumerate(instrs) if isinstance(instr, (Load, Store))]
    assert len(ends) == 2
    assert counts == [ends[0] + 1, ends[1] - ends[0], len(instrs) - 1 - ends[1]]


@pytest.mark.parametrize(
    "x, k, trap",
    [
        (-1, "1", "division by zero"),
        (0, "0 - 100000000", "load from negative address"),
    ],
    ids=["before-the-load", "at-the-load"],
)
def test_traps_inside_a_spilling_group(x, k, trap):
    program = spilling(x, k)
    want = reference(program, CONFIGS["small"])
    assert trap in want[0][1]
    assert want[2].spills > 0
    assert run(program, "fast", CONFIGS["small"])[0] == want


def test_step_limits_that_cut_groups():
    program = spilling(0, "1")
    for max_steps in range(1, 90):
        want = reference(program, CONFIGS["small"], max_steps)
        got, _ = run(program, "fast", CONFIGS["small"], max_steps)
        assert got == want, max_steps


def _reachable(root):
    """Every object a plan cache reaches through containers, instance
    state and closures (not through modules, classes or code)."""
    seen = {}
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.CodeType)):
            continue
        seen[id(obj)] = obj
        if isinstance(obj, types.FunctionType):
            stack.extend(obj.__defaults__ or ())
            for cell in obj.__closure__ or ():
                try:
                    stack.append(cell.cell_contents)
                except ValueError:  # an empty cell
                    pass
        else:
            stack.extend(gc.get_referents(obj))
    return seen.values()


def test_the_plan_cache_holds_no_model(monkeypatch):
    """For every sink family: the plans a run compiled hold neither its
    sink nor its tape, and the sink is freed at its last reference."""
    program = compile_program(LOOPS)
    tapes = []
    for kind in [k for k in SINK_KINDS if k != "none"] + ["recording"]:
        sink = _make_sink(kind, program)
        cls = type(sink)
        drain = cls.drain

        def capture(self, tape, _drain=drain):
            tapes.append(tape)
            _drain(self, tape)

        monkeypatch.setattr(cls, "drain", capture)
        Interpreter(program, [], sink=sink).run()
        monkeypatch.undo()
        assert tapes, kind
        assert program._plan_cache.plans
        held = _reachable(program._plan_cache)
        assert not any(obj is sink for obj in held), kind
        assert not any(obj is tape for tape in tapes for obj in held), kind
        dead = weakref.ref(sink)
        gc.disable()
        try:
            del sink
            assert dead() is None, kind
        finally:
            gc.enable()
