"""Scalability smoke: a large generated program through the whole stack.

The paper's closing challenge is "the sheer size of production codes"
(they ran a 500k-line kernel).  We cannot match that in an interpreter,
but the pipeline must at least stay correct and tractable well above
the unit-test program sizes: ~60 procedures over six modules, through
the PGO pipeline, HLO at suite budget, and the machine model.
"""

from repro.core import HLOConfig, outliner, run_hlo
from repro.core.budget import program_cost
from repro.frontend import compile_program
from repro.interp import run_program
from repro.ir import verify_program
from repro.machine import simulate
from repro.profile import ProfileDatabase, annotate_program, instrument_program
from repro.workloads.generator import generate_sources


def build_large():
    return generate_sources(987654, n_modules=6, funcs_per_module=9, n_globals=8)


class TestScale:
    def test_large_program_full_pipeline(self):
        sources = build_large()
        program = compile_program(sources)
        n_procs = len(list(program.all_procs()))
        assert n_procs >= 40, "scale test needs a genuinely large program"

        reference = run_program(program, max_steps=2_000_000)

        # PGO train.
        instrumented = compile_program(sources)
        probe_map = instrument_program(instrumented)
        trained = run_program(instrumented, max_steps=4_000_000)
        db = ProfileDatabase.from_training_run(
            instrumented, probe_map, trained.probe_counts, trained.steps
        )

        # Final compile with HLO.
        final = compile_program(sources)
        annotate_program(final, db)
        report = run_hlo(
            final, HLOConfig(budget_percent=400), site_counts=db.site_counts
        )
        verify_program(final)
        assert report.final_cost <= report.budget_limit * 1.001
        assert report.transform_count >= 5  # real work found

        # Behaviour identical, machine model runs clean.
        metrics, result = simulate(final, max_steps=4_000_000)
        assert result.behavior() == reference.behavior()
        assert metrics.cycles > 0

    def test_large_program_outlining_and_variants(self, monkeypatch):
        monkeypatch.setattr(outliner, "COLD_RATIO", 0.5)
        monkeypatch.setattr(outliner, "MIN_BLOCK_SIZE", 3)
        sources = build_large()
        reference = run_program(compile_program(sources), max_steps=2_000_000)
        base = HLOConfig(budget_percent=200, enable_outlining=True)
        for cfg in (base, base.inline_only(), base.clone_only()):
            program = compile_program(sources)
            run_hlo(program, cfg)
            verify_program(program)
            result = run_program(program, max_steps=4_000_000)
            assert result.behavior() == reference.behavior()
