"""``Program.proc`` remembers where a name lives and stays right as modules change.

The lookup keeps a name -> module map that it checks on every hit and
refills with a scan on a miss, so edits that bypass ``Program`` need no
invalidation.  Each test looks every name up first, so the map holds
the old home when the edit lands.
"""

from __future__ import annotations

from repro.ir import IRBuilder, Module, Program
from repro.resilience import PassGuard, ProgramSnapshot


def _program():
    a, b = Module("a"), Module("b")
    IRBuilder(a, "f").ret(1)
    IRBuilder(a, "g").ret(2)
    IRBuilder(b, "main").ret(0)
    program = Program([a, b])
    for name in ("f", "g", "main", "missing"):
        program.proc(name)
    return program


def test_lookup_after_delete_proc():
    program = _program()
    program.delete_proc("f")
    assert program.proc("f") is None
    assert program.proc("g").module == "a"


def test_lookup_after_a_direct_add_proc():
    program = _program()
    moved = program.proc("g")
    del program.modules["a"].procs["g"]
    program.modules["b"].add_proc(moved)
    assert program.proc("g") is moved
    new = IRBuilder(program.modules["a"], "missing").proc
    assert program.proc("missing") is new


def test_lookup_after_a_rolled_back_stage():
    program = _program()
    f = program.proc("f")

    def stage():
        program.delete_proc("f")
        added = IRBuilder(program.modules["b"], "h").proc
        program.report_added(added)
        assert program.proc("h") is added
        raise RuntimeError("injected")

    PassGuard().run_program_stage(program, "stage", stage)
    assert program.proc("f") is f
    assert program.proc("h") is None


def test_lookup_after_a_program_snapshot_restore():
    program = _program()
    snapshot = ProgramSnapshot(program)
    program.delete_proc("f")
    IRBuilder(program.modules["b"], "h")
    assert program.proc("h") is not None
    snapshot.restore(program)
    restored = program.proc("f")
    assert restored is not None and restored.module == "a"
    assert restored is program.modules["a"].procs["f"]
    assert program.proc("h") is None
