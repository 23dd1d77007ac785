"""Body transplant machinery: splicing, cloning, promotion, count flow."""

import pytest

from repro.core import (
    BlockSnapshot,
    copy_into_new_proc,
    promote_referenced_statics,
    subtract_moved_counts,
    transfer_ratio,
)
from repro.core.transplant import fresh_names, scale_count
from repro.frontend import compile_program
from repro.interp import run_program
from repro.ir import Imm, LINK_GLOBAL, LINK_STATIC, verify_program


class TestHelpers:
    def test_fresh_names_avoid_existing(self):
        existing = {"i0", "i2"}
        names = fresh_names(existing, 3, "i")
        assert names == ["i1", "i3", "i4"]
        assert set(names) <= existing

    def test_scale_count(self):
        assert scale_count(None, 0.5) is None
        assert scale_count(10, 0.25) == 2  # rounds
        assert scale_count(10, 1.0) == 10

    def test_transfer_ratio(self):
        assert transfer_ratio(None, 10) is None
        assert transfer_ratio(5, None) is None
        assert transfer_ratio(5, 10) == 0.5
        assert transfer_ratio(30, 10) == 1.0  # clamped
        assert transfer_ratio(5, 0) is None


class TestSnapshot:
    def test_snapshot_is_isolated(self):
        program = compile_program(
            [("m", "int f(int x) { return x + 1; } int main() { return f(1); }")]
        )
        proc = program.proc("f")
        snap = BlockSnapshot(proc)
        # Mutating the original does not affect the snapshot.
        proc.blocks[proc.entry].instrs.clear()
        total = sum(len(instrs) for _l, instrs, _c in snap.blocks)
        assert total > 0
        assert snap.param_names == ["x"]


class TestCloneCopy:
    SOURCES = [
        (
            "m",
            """
            int combine(int mode, int a, int b) {
              if (mode == 0) return a + b;
              if (mode == 1) return a - b;
              return a * b;
            }
            int main() {
              print_int(combine(0, 10, 4));
              print_int(combine(1, 10, 4));
              print_int(combine(2, 10, 4));
              return 0;
            }
            """,
        )
    ]

    def test_clone_specializes_parameter(self):
        program = compile_program(self.SOURCES)
        clonee = program.proc("combine")
        module = program.modules["m"]
        clone = copy_into_new_proc(
            program, clonee, module, "combine.c1", {0: Imm(1)}, None
        )
        module.add_proc(clone)
        verify_program(program)
        # The clone lost the bound parameter.
        assert [n for n, _t in clone.params] == ["a", "b"]
        assert clone.ret_type == clonee.ret_type
        # Executing the clone behaves like mode=1.
        from repro.interp import Interpreter

        result = Interpreter(program).run(entry="combine.c1", args=[10, 4])
        assert result.exit_code == 6

    def test_clone_site_ids_fresh(self):
        program = compile_program(
            [
                (
                    "m",
                    """
                    int leaf(int x) { return x; }
                    int wrap(int m, int x) { return leaf(x) + m; }
                    int main() { return wrap(1, 2); }
                    """,
                )
            ]
        )
        module = program.modules["m"]
        existing = {
            instr.site_id
            for proc in program.all_procs()
            for _b, _i, instr in proc.call_sites()
        }
        clone = copy_into_new_proc(
            program, program.proc("wrap"), module, "wrap.c1", {0: Imm(5)}, None
        )
        module.add_proc(clone)
        for _b, _i, instr in clone.call_sites():
            assert instr.site_id not in existing

    def test_profile_counts_split(self):
        program = compile_program(self.SOURCES)
        clonee = program.proc("combine")
        for block in clonee.blocks.values():
            block.profile_count = 100
        module = program.modules["m"]
        clone = copy_into_new_proc(
            program, clonee, module, "combine.c1", {0: Imm(0)}, 0.25
        )
        module.add_proc(clone)
        subtract_moved_counts(program, clonee, 0.25)
        # Flow conservation: moved + remaining == original.
        remaining = clonee.blocks[clonee.entry].profile_count
        body_labels = [l for l in clone.blocks if l in clonee.blocks]
        moved = clone.blocks[body_labels[0]].profile_count
        assert remaining == 75
        assert moved == 25


class TestPromotion:
    def test_static_promoted_when_crossing_modules(self):
        sources = [
            (
                "lib",
                """
                static int secret(int x) { return x * 3; }
                int expose() { return &secret; }
                """,
            ),
            (
                "main",
                """
                extern int expose();
                int main() { int f = expose(); return f(2); }
                """,
            ),
        ]
        program = compile_program(sources)
        static_proc = program.proc("secret$lib")
        assert static_proc.linkage == LINK_STATIC
        # Simulate code landing in another module that references it.
        instrs = list(program.proc("expose").instructions())
        promoted = promote_referenced_statics(program, instrs, "main")
        assert promoted == 1
        assert static_proc.linkage == LINK_GLOBAL
        verify_program(program)

    def test_same_module_reference_not_promoted(self):
        sources = [
            (
                "lib",
                """
                static int secret(int x) { return x; }
                int use(int x) { return secret(x); }
                int main() { return use(1); }
                """,
            )
        ]
        program = compile_program(sources)
        instrs = list(program.proc("use").instructions())
        promoted = promote_referenced_statics(program, instrs, "lib")
        assert promoted == 0
        assert program.proc("secret$lib").linkage == LINK_STATIC
