"""The event stream contract between interpreter and machine model.

Both engines deliver the same stream: the reference engine calls the
``on_*`` callbacks as each event happens, and the fast engine appends
each event's token to the run's tape and hands it to ``drain``, whose
base-class version makes the same calls in the same order.  Every
check here runs on both engines.
"""

import pytest

from repro.frontend import compile_program
from repro.interp import ENGINES, EventSink, run_program


class RecordingSink(EventSink):
    def __init__(self):
        self.instrs = []
        self.branches = []
        self.calls = []
        self.returns = []
        self.mems = []

    def on_instr(self, proc, label, index, instr):
        self.instrs.append((proc.name, label, index, type(instr).__name__))

    def on_branch(self, proc, label, index, kind, taken, target_label):
        self.branches.append((proc.name, kind, taken, target_label))

    def on_call(self, caller, callee_name, kind, n_args):
        self.calls.append((caller.name, callee_name, kind, n_args))

    def on_return(self, callee_name, caller):
        self.returns.append((callee_name, caller.name))

    def on_mem(self, addr, is_store):
        self.mems.append((addr, is_store))


SOURCES = [
    (
        "m",
        """
        int g[4];
        int tiny(int x) { return x + 1; }
        int apply(int f, int x) { return f(x); }
        int main() {
          g[0] = tiny(1);
          int r = apply(&tiny, g[0]);
          print_int(r);
          if (r > 2) return 1;
          return 0;
        }
        """,
    )
]


@pytest.fixture(params=ENGINES)
def engine(request):
    return request.param


def run_with_sink(engine, sink=None):
    if sink is None:
        sink = RecordingSink()
    program = compile_program(SOURCES)
    result = run_program(program, sink=sink, engine=engine)
    return sink, result


class TestEventStream:
    def test_instr_events_cover_all_steps(self, engine):
        sink, result = run_with_sink(engine)
        assert len(sink.instrs) == result.steps

    def test_call_kinds(self, engine):
        sink, _ = run_with_sink(engine)
        kinds = {(callee, kind) for _c, callee, kind, _n in sink.calls}
        assert ("tiny", "direct") in kinds
        assert ("tiny", "indirect") in kinds  # through apply's parameter
        assert ("print_int", "builtin") in kinds

    def test_returns_name_callee_and_receiver(self, engine):
        sink, _ = run_with_sink(engine)
        assert ("tiny", "main") in sink.returns
        assert ("apply", "main") in sink.returns
        assert ("tiny", "apply") in sink.returns
        # Builtins do not produce return events.
        assert all(callee != "print_int" for callee, _ in sink.returns)

    def test_mem_events_for_global_traffic(self, engine):
        sink, _ = run_with_sink(engine)
        stores = [addr for addr, is_store in sink.mems if is_store]
        loads = [addr for addr, is_store in sink.mems if not is_store]
        assert len(stores) == 1  # g[0] = ...
        assert len(loads) == 1  # ... = g[0]
        assert stores == loads  # same cell

    def test_branch_events_record_direction(self, engine):
        sink, _ = run_with_sink(engine)
        cond = [(taken, target) for _p, kind, taken, target in sink.branches if kind == "cond"]
        assert cond  # the r > 2 test
        taken_flags = {taken for taken, _t in cond}
        assert True in taken_flags  # r == 3 > 2

    def test_instr_identities_are_resolvable(self, engine):
        """Every (proc, label, index) the sink sees must exist in the
        program — the machine layout depends on this."""
        sink, _ = run_with_sink(engine)
        program = compile_program(SOURCES)
        for proc_name, label, index, _cls in sink.instrs:
            proc = program.proc(proc_name)
            assert proc is not None
            assert label in proc.blocks
            assert index < len(proc.blocks[label].instrs)

    def test_both_engines_deliver_one_stream(self):
        fast, _ = run_with_sink("fast")
        ref, _ = run_with_sink("reference")
        for stream in ("instrs", "branches", "calls", "returns", "mems"):
            assert getattr(fast, stream) == getattr(ref, stream), stream


class DrainingSink(RecordingSink):
    """Records which delivery each callback came through."""

    def __init__(self):
        super().__init__()
        self.drains = 0
        self.outside = 0  # callbacks made outside drain
        self._draining = False
        self.tokens = []

    def drain(self, tape):
        self.drains += 1
        self.tokens.extend(tape)
        self._draining = True
        try:
            super().drain(tape)
        finally:
            self._draining = False

    def on_instr(self, proc, label, index, instr):
        self.outside += not self._draining
        super().on_instr(proc, label, index, instr)

    def on_mem(self, addr, is_store):
        self.outside += not self._draining
        super().on_mem(addr, is_store)


class TestDelivery:
    def test_fast_engine_delivers_through_drain(self):
        sink, _ = run_with_sink("fast", DrainingSink())
        assert sink.drains >= 1
        assert sink.outside == 0
        assert sink.instrs and sink.mems

    def test_reference_engine_calls_each_callback(self):
        sink, _ = run_with_sink("reference", DrainingSink())
        assert sink.drains == 0
        assert sink.outside == len(sink.instrs) + len(sink.mems)

    def test_a_store_token_is_its_address_inverted(self):
        sink, _ = run_with_sink("fast", DrainingSink())
        # g[0] = tiny(1) stores, then apply(&tiny, g[0]) loads the cell.
        [(addr, _store), _load] = sink.mems
        accesses = [token for token in sink.tokens if type(token) is int]
        assert accesses == [~addr, addr]
