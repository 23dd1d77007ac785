"""Plan-cache behaviour under hot swap.

Any caller may edit a program between runs, or from a sink while it
runs; the optimized engine's plan cache (``Program._plan_cache``) may
never serve a plan for code that changed underneath it.  Three
mechanisms cover the matrix:

- plans self-validate against the procedure's content fingerprint on
  every *run's first* lookup, so an in-place procedure swap is picked
  up on the next run;
- the whole cache clears when the program's globals layout signature
  changes (plans embed resolved global addresses);
- within one run, resolution is cached per run (``_ExecState.link``) —
  a mutation landing mid-run completes on the old plan and takes
  effect on the next run (a running program finishes on the code it
  started on).

The mid-run swap comes from a sink's ``on_call``.  The fast engine
delivers that callback when it drains the run's tape, so those runs
make more helper calls than ``TAPE_BOUND``: a drain at the bound lands
the swap while the loop still runs, and the calls after it show which
plan they ran.
"""

from __future__ import annotations

import pytest

from repro.frontend.driver import compile_program
from repro.interp.diff import OPTIMIZED_ENGINES
from repro.interp.engine import TAPE_BOUND
from repro.interp.events import EventSink
from repro.interp.interpreter import Interpreter, run_program

#: Helper calls in a mid-run swap test: twice the tape's bound, so at
#: least one drain at the bound comes before the loop ends.
LONG = 2 * TAPE_BOUND


@pytest.fixture(params=OPTIMIZED_ENGINES)
def engine(request):
    return request.param


def _sources(bonus: int, iterations: int = 4) -> list:
    return [
        (
            "lib",
            "int helper(int x) {{ return x + {}; }}\n".format(bonus),
        ),
        (
            "main",
            "extern int helper(int x);\n"
            "int main() {{ int i = 0; int acc = 0;\n"
            "  while (i < {}) {{ acc = acc + helper(10); i = i + 1; }}\n"
            "  print_int(acc); return 0; }}\n".format(iterations),
        ),
    ]


def _swap_helper(program, bonus: int) -> None:
    """In-place hot swap: give @helper the body from a new compile."""
    donor = compile_program(_sources(bonus))
    new = donor.modules["lib"].procs["helper"]
    old = program.modules["lib"].procs["helper"]
    old.blocks = new.blocks
    old.params = new.params


def test_fingerprint_change_invalidates_between_runs(engine):
    program = compile_program(_sources(1))
    assert run_program(program, engine=engine).output == [44]
    cache = program._plan_cache
    compiled_before = cache.plans_compiled
    _swap_helper(program, 100)
    # Same Program object, same cache: the stale plan must lose.
    assert run_program(program, engine=engine).output == [440]
    assert program._plan_cache is cache
    assert cache.plans_compiled > compiled_before


def test_unchanged_procs_hit_the_cache_after_swap(engine):
    program = compile_program(_sources(1))
    run_program(program, engine=engine)
    cache = program._plan_cache
    _swap_helper(program, 100)
    hits_before = cache.cache_hits
    run_program(program, engine=engine)
    # @main did not change; its plan must be reused, not recompiled.
    assert cache.cache_hits > hits_before


def test_globals_layout_change_clears_whole_cache(engine):
    with_global = [
        ("lib", "int counter[2];\nint helper(int x) { return x + 1; }\n"),
        _sources(1)[1],
    ]
    program = compile_program(_sources(1))
    run_program(program, engine=engine)
    cache = program._plan_cache
    assert cache.plans
    # Splice in a module variant that declares a global: the layout
    # signature shifts, so every plan's embedded addresses are stale.
    donor = compile_program(with_global)
    program.modules["lib"] = donor.modules["lib"]
    result = run_program(program, engine=engine)
    assert result.output == [44]
    assert program._plan_cache is cache  # cleared in place, not replaced
    assert cache.globals_sig == tuple(
        (g.name, g.size) for g in program.all_globals()
    )


def test_invalidate_plans_drops_the_cache_object(engine):
    program = compile_program(_sources(1))
    run_program(program, engine=engine)
    assert program._plan_cache is not None
    program.invalidate_plans()
    assert program._plan_cache is None
    # And the next run rebuilds from nothing, correctly.
    assert run_program(program, engine=engine).output == [44]


class _MidRunSwapper(EventSink):
    """Hot-swaps @helper when told of its second call, mid-run.

    ``printed_at_swap`` is the run's output when the swap landed: empty
    while the loop still runs, since the program prints only after it.
    """

    needs_instr = False
    needs_branch = False
    needs_return = False
    needs_mem = False

    def __init__(self, program, bonus):
        self.program = program
        self.bonus = bonus
        self.calls = 0
        self.output = None
        self.printed_at_swap = None

    def run(self, engine):
        interp = Interpreter(self.program, sink=self, engine=engine)
        self.output = interp.output
        return interp.run()

    def on_call(self, caller, callee_name, kind, n_args):
        if callee_name == "helper":
            self.calls += 1
            if self.calls == 2:
                _swap_helper(self.program, self.bonus)
                self.printed_at_swap = list(self.output)


def test_mid_run_swap_completes_on_old_plan_next_run_sees_new(engine):
    program = compile_program(_sources(1, LONG))
    sink = _MidRunSwapper(program, 100)
    first = sink.run(engine)
    # The swap landed while the loop still ran, and every call, the
    # ones after it included, used the plan resolved at the run's first
    # call — the in-flight run is never torn between two builds.
    assert sink.printed_at_swap == []
    assert sink.calls == LONG
    assert first.output == [11 * LONG]
    # A fresh run re-validates fingerprints and sees the swapped body.
    second = run_program(program, engine=engine)
    assert second.output == [110 * LONG]


def test_mid_run_swap_matches_reference_engine_semantics(engine):
    program_opt = compile_program(_sources(1, LONG))
    program_ref = compile_program(_sources(1, LONG))
    opt_sink = _MidRunSwapper(program_opt, 100)
    ref_sink = _MidRunSwapper(program_ref, 100)
    opt = opt_sink.run(engine)
    ref = ref_sink.run("reference")
    assert opt_sink.printed_at_swap == ref_sink.printed_at_swap == []
    # The reference engine re-reads blocks each call, so it *does* see
    # the new body mid-run, from the call its on_call announced; the
    # contract is only about post-swap runs, where both engines agree.
    assert opt.output == [11 * LONG]
    assert ref.output == [11 + 110 * (LONG - 1)]
    assert opt.exit_code == ref.exit_code == 0
    assert run_program(program_opt, engine=engine).output == \
        run_program(program_ref, engine="reference").output == [110 * LONG]
