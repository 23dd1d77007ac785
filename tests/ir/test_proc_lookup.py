"""``Program.proc`` looks names up in an index that stays complete as modules change.

The index maps every procedure to its module.  ``Program.add_module``
fills it, and each module keeps it current through ``add_proc``,
``remove_proc`` and ``set_procs``, which the delete and the two restores
(a rolled-back stage, a program snapshot) go through, so a miss is one
dict probe and scans no module.  Each test looks every name up first,
so the index holds the old home when the edit lands.
"""

from __future__ import annotations

import pickle

import pytest

from repro.ir import RUNTIME_BUILTINS, IRBuilder, Module, Program
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


class _CountingModules(dict):
    """A module table that counts the scans over it."""

    scans = 0

    def items(self):
        self.scans += 1
        return super().items()

    def values(self):
        self.scans += 1
        return super().values()

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


def test_a_miss_scans_no_module():
    program = _program()
    program.modules = _CountingModules(program.modules)
    for name in list(RUNTIME_BUILTINS) + ["missing"]:
        assert program.proc(name) is None
        assert not program.is_defined(name)
    assert program.proc("g").module == "a"
    assert program.modules.scans == 0


def test_add_module_rejects_a_procedure_defined_elsewhere():
    program = _program()
    c = Module("c")
    IRBuilder(c, "h").ret(3)
    IRBuilder(c, "f").ret(4)
    with pytest.raises(ValueError, match="duplicate procedure across modules: f"):
        program.add_module(c)
    assert "c" not in program.modules
    assert program.proc("f").module == "a"
    assert program.proc("h") is None


def test_lookup_after_a_pickle_round_trip():
    program = pickle.loads(pickle.dumps(_program()))
    assert program.proc("f") is program.modules["a"].procs["f"]
    added = IRBuilder(program.modules["b"], "h").proc
    assert program.proc("h") is added
    program.delete_proc("f")
    assert program.proc("f") is None
