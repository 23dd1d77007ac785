"""The fast engine's tape: bounded, and drained before a run ends.

The fast engine appends each event's token to the run's tape and hands
the tape to the sink's ``drain`` when it passes ``TAPE_BOUND`` (checked
where a part ends in a branch, jump or call), before any callback it
makes directly, and before ``Interpreter.run`` returns or raises.  So a
long loop never piles up tokens, and a sink's state is complete the
moment the run is over, however it ends: each case reads every sink
family's state right after the run, without asking the sink for
anything (the model's counters are read as attributes), and compares
it with the reference engine's, which delivers each event as it
happens.
"""

from __future__ import annotations

import pytest

from repro.frontend import compile_program
from repro.interp import CountingSink, Interpreter
from repro.interp.engine import TAPE_BOUND
from repro.interp.errors import ExecError
from repro.interp.events import EventSink
from repro.interp.fuzz import SINK_KINDS, _make_sink
from repro.machine import PA8000Model

# A call-free loop whose every iteration puts its branch's token and
# two data accesses on the tape: about five tokens an iteration, so the
# whole run's tokens are several times the bound.
LOOP = """
int g[8];
int main() {
  int s = 0;
  for (int i = 0; i < 3000; i++) { g[i % 8] = s; s = s + g[(i + 3) % 8]; }
  print_int(s);
  return 0;
}
"""

# The most tokens one part of LOOP appends: a part's group token and
# its branch are one token, and a part has at most two data accesses.
PART_TOKENS = 3


@pytest.mark.parametrize("sink_class", [PA8000Model, CountingSink])
def test_a_long_loop_never_holds_more_than_its_bound(sink_class, monkeypatch):
    program = compile_program([("m", LOOP)])
    lengths = []
    drain = sink_class.drain

    def measure(self, tape):
        lengths.append(len(tape))
        drain(self, tape)

    monkeypatch.setattr(sink_class, "drain", measure)
    sink = sink_class(program) if sink_class is PA8000Model else sink_class()
    Interpreter(program, [], sink=sink).run()
    assert sum(lengths) > 3 * TAPE_BOUND
    assert max(lengths) <= TAPE_BOUND + PART_TOKENS
    assert len(lengths) > 3


# The division traps with two more instructions of its part, a store
# among them, and the return still to go.
TRAP = """
int g;
int helper(int x) { int y = 100 / x; int z = y * 3; g = z + y; return z + 1; }
int main() {
  int i = 3;
  while (i > 0 - 2) { g = g + i; print_int(helper(i)); i = i - 1; }
  return 0;
}
"""

# exit() is called from a callee, with the caller's frames unreturned.
EXIT = """
int g[4];
int leaf(int x) { g[x % 4] = x; if (x > 40) exit(7); return x * 2; }
int mid(int x) { return leaf(x) + leaf(x + 1); }
int main() {
  int s = 0;
  for (int i = 0; i < 100; i++) s = s + mid(i);
  print_int(s);
  return 0;
}
"""

CUT = """
int g[4];
int helper(int x) { g[x % 4] = x; return x * 3 + 1; }
int main() {
  int s = 0;
  for (int i = 0; i < 1000; i++) s = s + helper(i) + g[i % 4];
  print_int(s);
  return 0;
}
"""

RUNS = {
    "trap": (TRAP, 10_000_000, "ExecError"),
    "exit": (EXIT, 10_000_000, None),
    "cut": (CUT, 2_345, "StepLimitExceeded"),
}

KINDS = [kind for kind in SINK_KINDS if kind != "none"] + ["recording"]


def _state(kind, sink):
    """A sink's accumulated state, read without calling into it."""
    if kind.startswith("pa8000"):
        return (
            sink.retired, sink.calls, sink.spills, sink.depth, sink._off_image,
            sink.icache.misses, tuple(sink.icache.tags),
            sink.dcache.accesses, sink.dcache.misses, tuple(sink.dcache.tags),
            sink.predictor.predictions, sink.predictor.mispredictions,
            tuple(sink.predictor.counters),
        )
    if kind == "counting":
        return (sink.instrs, sink.branches, sink.calls, sink.returns, sink.mems)
    if kind == "recording":
        return tuple(sink.events)
    state = dict(vars(sink))
    state.pop("_rng")
    return state


def _run(source, kind, engine, max_steps):
    program = compile_program([("m", source)])
    sink = _make_sink(kind, program)
    interp = Interpreter(program, [], sink=sink, max_steps=max_steps, engine=engine)
    try:
        outcome = interp.run().behavior()
    except ExecError as exc:
        outcome = (type(exc).__name__, str(exc))
    return outcome, interp.steps, _state(kind, sink)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("run", sorted(RUNS))
def test_sink_state_is_complete_when_the_run_ends(run, kind):
    source, max_steps, raised = RUNS[run]
    want = _run(source, kind, "reference", max_steps)
    if raised is None:
        assert want[0][0] == 7  # exit(7)
    else:
        assert want[0][0] == raised
    assert _run(source, kind, "fast", max_steps) == want


class _RaisingSink(EventSink):
    """Raises from the callback of the first call it is told of."""

    def on_call(self, caller, callee_name, kind, n_args):
        raise RuntimeError("sink failed at the call of @" + callee_name)


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_a_raising_callback_surfaces_in_place_of_the_trap(engine):
    # The first call's callback raises.  On the fast engine it runs at
    # the final drain, while the trap the run ends in (TRAP's fourth
    # call divides by zero) unwinds, and the trap is kept as the
    # exception's context.  Both engines raise the callback's exception.
    program = compile_program([("m", TRAP)])
    interp = Interpreter(program, [], sink=_RaisingSink(), engine=engine)
    with pytest.raises(RuntimeError, match="the call of @helper") as raised:
        interp.run()
    if engine == "fast":
        assert isinstance(raised.value.__context__, ExecError)
        assert "division" in str(raised.value.__context__)
    else:
        assert raised.value.__context__ is None
