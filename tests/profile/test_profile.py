"""Profile pipeline: instrumentation, database, annotation, training."""

from collections import Counter

import pytest

from repro.frontend import compile_program
from repro.interp import ENGINES, RecordingSink, run_program
from repro.ir import Probe
from repro.profile import (
    ProfileDatabase,
    annotate_program,
    clear_annotations,
    instrument_program,
    strip_probes,
    train,
)

SOURCES = [
    (
        "m",
        """
        int leaf(int x) { return x * 2; }
        int main() {
          int total = 0;
          for (int i = 0; i < input(0); i++) {
            if (i % 2) total += leaf(i);
          }
          print_int(total);
          return 0;
        }
        """,
    )
]


def probe_count(program):
    return sum(
        isinstance(i, Probe) for p in program.all_procs() for i in p.instructions()
    )


class TestInstrumentation:
    def test_one_probe_per_block(self):
        program = compile_program(SOURCES)
        blocks = sum(len(p.blocks) for p in program.all_procs())
        probe_map = instrument_program(program)
        assert probe_count(program) == blocks
        assert len(probe_map) == blocks

    def test_instrumentation_preserves_behavior(self):
        program = compile_program(SOURCES)
        before = run_program(program, [6]).behavior()
        instrument_program(program)
        assert run_program(program, [6]).behavior() == before

    def test_strip_probes(self):
        program = compile_program(SOURCES)
        instrument_program(program)
        removed = strip_probes(program)
        assert removed > 0
        assert probe_count(program) == 0

    def test_probe_counts_match_block_execution(self):
        program = compile_program(SOURCES)
        probe_map = instrument_program(program)
        for engine in ENGINES:
            sink = RecordingSink()
            result = run_program(program, [6], sink=sink, engine=engine)
            # A block is entered each time its first instruction runs.
            entries = Counter(
                (event[1], event[2])
                for event in sink.events
                if event[0] == "instr" and event[3] == 0
            )
            assert sum(entries.values()) == sum(result.probe_counts.values())
            for counter_id, (proc, label) in probe_map.items():
                assert result.probe_counts.get(counter_id, 0) == entries[(proc, label)]


class TestDatabase:
    def make_db(self, inputs=(6,)):
        program = compile_program(SOURCES)
        probe_map = instrument_program(program)
        result = run_program(program, list(inputs))
        return ProfileDatabase.from_training_run(
            program, probe_map, result.probe_counts, result.steps
        )

    def test_block_counts_recorded(self):
        db = self.make_db()
        assert db.block_count("main", "entry") == 1
        assert db.block_count("leaf", "entry") == 3  # i in {1,3,5}

    def test_site_counts_derived_from_blocks(self):
        db = self.make_db()
        site_totals = sum(
            count for (mod, _site), count in db.site_counts.items() if mod == "m"
        )
        assert site_totals > 0
        leaf_counts = [c for c in db.site_counts.values() if c == 3]
        assert leaf_counts  # the leaf call site executed 3 times

    def test_merge_accumulates_runs(self):
        program = compile_program(SOURCES)
        probe_map = instrument_program(program)
        db = ProfileDatabase()
        for inputs in ([4], [8]):
            result = run_program(program, inputs)
            db.merge_run(program, probe_map, result.probe_counts, result.steps)
        assert db.training_runs == 2
        assert db.block_count("main", "entry") == 2

    def test_text_roundtrip(self):
        db = self.make_db()
        text = db.to_text()
        loaded = ProfileDatabase.from_text(text)
        assert loaded.block_counts == db.block_counts
        assert loaded.site_counts == db.site_counts
        assert loaded.training_steps == db.training_steps

    def test_save_load(self, tmp_path):
        db = self.make_db()
        path = str(tmp_path / "prof.db")
        db.save(path)
        assert ProfileDatabase.load(path).block_counts == db.block_counts

    def test_bad_text_rejected(self):
        with pytest.raises(ValueError):
            ProfileDatabase.from_text("not a db")
        with pytest.raises(ValueError):
            ProfileDatabase.from_text("profiledb 1\nbogus line here")


class TestAnnotation:
    def test_fresh_compile_annotated(self):
        db = TestDatabase().make_db()
        program = compile_program(SOURCES)  # fresh, unprobed compile
        annotated = annotate_program(program, db)
        assert annotated > 0
        main = program.proc("main")
        assert main.blocks[main.entry].profile_count == 1

    def test_stale_keys_skipped(self):
        db = TestDatabase().make_db()
        db.block_counts[("ghost_proc", "entry")] = 99
        program = compile_program(SOURCES)
        annotate_program(program, db)  # must not raise

    def test_clear_annotations(self):
        db = TestDatabase().make_db()
        program = compile_program(SOURCES)
        annotate_program(program, db)
        clear_annotations(program)
        assert all(
            b.profile_count is None
            for p in program.all_procs()
            for b in p.blocks.values()
        )


class TestTrain:
    def test_train_runs_pipeline(self):
        db = train(SOURCES, [[4], [8]])
        assert db.training_runs == 2
        assert db.training_steps > 0
        assert not db.is_empty()


class TestCombination:
    """Section 5 extension: profiles from a variety of sources."""

    def make_db(self, inputs):
        program = compile_program(SOURCES)
        probe_map = instrument_program(program)
        result = run_program(program, inputs)
        return ProfileDatabase.from_training_run(
            program, probe_map, result.probe_counts, result.steps
        )

    def test_scaled(self):
        db = self.make_db([6])
        doubled = db.scaled(2.0)
        assert doubled.block_count("leaf", "entry") == 2 * db.block_count("leaf", "entry")
        assert doubled.training_steps == 2 * db.training_steps
        # The original is untouched.
        assert db.block_count("leaf", "entry") == 3

    def test_scaled_rejects_negative(self):
        with pytest.raises(ValueError):
            self.make_db([6]).scaled(-1.0)

    def test_unweighted_combine_adds(self):
        a = self.make_db([6])
        b = self.make_db([10])
        merged = ProfileDatabase.combine([a, b])
        assert merged.block_count("leaf", "entry") == (
            a.block_count("leaf", "entry") + b.block_count("leaf", "entry")
        )
        assert merged.training_runs == 2

    def test_weighted_combine_equalizes_sources(self):
        short = self.make_db([4])
        long = self.make_db([40])
        # Unweighted, the long run dominates the hot-site ratio.
        dominated = ProfileDatabase.combine([short, long])
        # Equal weights normalize by run length first.
        balanced = ProfileDatabase.combine([short, long], weights=[1.0, 1.0])
        key = ("leaf", "entry")
        ratio_dom = dominated.block_counts[key] / max(dominated.block_counts[("main", "entry")], 1)
        ratio_bal = balanced.block_counts[key] / max(balanced.block_counts[("main", "entry")], 1)
        assert ratio_bal < ratio_dom  # the short run pulled the mix down

    def test_weight_arity_checked(self):
        with pytest.raises(ValueError):
            ProfileDatabase.combine([self.make_db([4])], weights=[1.0, 2.0])

    def test_combine_empty(self):
        merged = ProfileDatabase.combine([])
        assert merged.is_empty()
