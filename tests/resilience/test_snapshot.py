"""IR checkpoints: capture, mutate, restore, repeat."""

import pytest

from repro.frontend import compile_program
from repro.interp import run_program
from repro.ir import print_program
from repro.ir.instructions import Jump
from repro.opt import optimize_proc
from repro.resilience import ProcedureSnapshot, ProgramSnapshot

LIB = """
static int twice(int x) { return x + x; }
int api(int x) { return twice(x) + 3; }
"""
MAIN = """
extern int api(int x);
int main() { print_int(api(input(0))); return 0; }
"""


def program():
    return compile_program([("lib", LIB), ("main", MAIN)])


class TestProcedureSnapshot:
    def test_restore_undoes_block_mutation(self):
        prog = program()
        proc = prog.proc("api")
        before = print_program(prog)
        snap = ProcedureSnapshot(proc)

        entry = proc.blocks[proc.entry]
        entry.instrs[-1] = Jump("__nowhere")
        assert print_program(prog) != before

        snap.restore(proc)
        assert print_program(prog) == before

    def test_restore_preserves_identity(self):
        prog = program()
        proc = prog.proc("api")
        snap = ProcedureSnapshot(proc)
        snap.restore(proc)
        assert prog.proc("api") is proc

    def test_restore_is_repeatable(self):
        prog = program()
        proc = prog.proc("api")
        before = print_program(prog)
        snap = ProcedureSnapshot(proc)
        for _ in range(3):
            proc.blocks[proc.entry].instrs[-1] = Jump("__nowhere")
            snap.restore(proc)
        assert print_program(prog) == before

    def test_snapshot_isolated_from_later_mutation(self):
        # The snapshot must hold copies: mutating the live procedure
        # after capture (even instruction-level, in place) cannot leak
        # into the checkpoint.
        prog = program()
        proc = prog.proc("api")
        before = print_program(prog)
        snap = ProcedureSnapshot(proc)
        for block in proc.blocks.values():
            for instr in list(block.instrs):
                block.instrs.remove(instr)
                break
        snap.restore(proc)
        assert print_program(prog) == before

    def test_name_mismatch_rejected(self):
        prog = program()
        snap = ProcedureSnapshot(prog.proc("api"))
        with pytest.raises(ValueError):
            snap.restore(prog.proc("main"))


class TestProgramSnapshot:
    def test_restores_deleted_procedure(self):
        prog = program()
        before = print_program(prog)
        snap = ProgramSnapshot(prog)
        prog.delete_proc("twice$lib")  # the front end's static-name mangling
        assert prog.proc("twice$lib") is None
        snap.restore(prog)
        assert prog.proc("twice$lib") is not None
        assert print_program(prog) == before

    def test_restores_behavior(self):
        prog = program()
        baseline = run_program(prog, [7]).behavior()
        snap = ProgramSnapshot(prog)
        api = prog.proc("api")
        api.blocks[api.entry].instrs[-1] = Jump("__nowhere")
        snap.restore(prog)
        assert run_program(prog, [7]).behavior() == baseline

    def test_preserves_module_and_proc_identity(self):
        prog = program()
        lib = prog.modules["lib"]
        api = prog.proc("api")
        snap = ProgramSnapshot(prog)
        snap.restore(prog)
        assert prog.modules["lib"] is lib
        assert prog.proc("api") is api


class TestFixedPointMark:
    """A snapshot puts the optimizer's mark back with the body it belongs to."""

    @staticmethod
    def marked_program():
        prog = program()
        for proc in prog.all_procs():
            optimize_proc(prog, proc)
            assert proc.at_fixed_point
        return prog

    def test_procedure_restore_returns_a_set_mark(self):
        prog = self.marked_program()
        api = prog.proc("api")
        snap = ProcedureSnapshot(api)
        api.at_fixed_point = False
        snap.restore(api)
        assert api.at_fixed_point

    def test_procedure_restore_returns_an_unset_mark(self):
        prog = program()
        api = prog.proc("api")
        snap = ProcedureSnapshot(api)
        optimize_proc(prog, api)
        assert api.at_fixed_point
        snap.restore(api)
        assert not api.at_fixed_point

    @pytest.mark.parametrize("marked", [True, False])
    def test_materialize_carries_the_mark(self, marked):
        prog = self.marked_program() if marked else program()
        copy = ProcedureSnapshot(prog.proc("api")).materialize("lib")
        assert copy.at_fixed_point is marked

    def test_program_restore_returns_marks_in_place_and_on_recreated_procs(self):
        prog = self.marked_program()
        snap = ProgramSnapshot(prog)
        prog.proc("api").at_fixed_point = False
        prog.delete_proc("twice$lib")
        snap.restore(prog)
        assert all(proc.at_fixed_point for proc in prog.all_procs())

    def test_program_restore_returns_unset_marks(self):
        prog = program()
        snap = ProgramSnapshot(prog)
        for proc in prog.all_procs():
            optimize_proc(prog, proc)
        prog.delete_proc("twice$lib")
        snap.restore(prog)
        assert not any(proc.at_fixed_point for proc in prog.all_procs())
