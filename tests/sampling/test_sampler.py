"""The sampling sink and sampled-profile collection."""

import pytest

from repro.analysis.dominators import control_equivalent_classes
from repro.frontend.driver import compile_program
from repro.interp.interpreter import run_program
from repro.ir.instructions import CALL_INSTRS, Ret
from repro.profile.database import ProfileDatabase
from repro.profile.fingerprint import fingerprint_program
from repro.profile.pgo import train
from repro.sampling import (
    SampledProfile,
    SamplingSink,
    sample_run,
    sample_train,
)

NESTED = """
int leaf(int x) { return x * 3 + 1; }
int mid(int x) { return leaf(x) + leaf(x + 2); }
int main() {
  int i;
  int s = 0;
  for (i = 0; i < 50; i = i + 1) {
    s = s + mid(i);
  }
  print_int(s);
  return 0;
}
"""

DIAMOND = """
int main() {
  int a = input(0);
  int s = 0;
  if (a > 0) {
    s = a * 2;
  } else {
    s = a - 7;
  }
  print_int(s);
  return 0;
}
"""


def _compile(src, name="m"):
    return compile_program([(name, src)])


class TestSamplingSink:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SamplingSink(rate=0)
        with pytest.raises(ValueError):
            SamplingSink(context_depth=-1)

    def test_same_seed_is_deterministic(self):
        tallies = []
        for _ in range(2):
            sink = SamplingSink(rate=10, context_depth=2, seed=3)
            run_program(_compile(NESTED), sink=sink)
            tallies.append(
                (sink.events, sink.samples, sink.block_samples,
                 sink.context_samples, sink.site_hits)
            )
        assert tallies[0] == tallies[1]

    def test_jitter_varies_the_gap(self):
        sink = SamplingSink(rate=100, context_depth=0, seed=1)
        gaps = {sink._next_gap() for _ in range(50)}
        assert len(gaps) > 1
        assert all(80 <= g <= 120 for g in gaps)

    def test_effective_rate_tracks_nominal(self):
        sink = SamplingSink(rate=20, seed=0)
        run_program(_compile(NESTED), sink=sink)
        assert sink.samples > 10
        assert sink.effective_rate == pytest.approx(20, rel=0.25)

    def test_shadow_stack_records_nearest_first_contexts(self):
        sink = SamplingSink(rate=5, context_depth=2, seed=0)
        run_program(_compile(NESTED), sink=sink)
        assert sink._stack == []  # balanced: every call returned
        leaf_contexts = set()
        mid_contexts = set()
        for (proc, _label), per in sink.context_samples.items():
            if proc == "leaf":
                leaf_contexts.update(per)
            elif proc == "mid":
                mid_contexts.update(per)
        assert leaf_contexts == {("mid", "main")}
        assert mid_contexts == {("main",)}

    def test_builtin_calls_do_not_grow_the_stack(self):
        # print_int is a builtin: no frame, no on_return.  A depth-1
        # context taken inside main right after a builtin call must
        # still be empty, not ("main",).
        sink = SamplingSink(rate=1, context_depth=1, seed=0)
        run_program(_compile(DIAMOND), [5], sink=sink)
        main_contexts = {
            ctx
            for (proc, _label), per in sink.context_samples.items()
            if proc == "main"
            for ctx in per
        }
        assert main_contexts == {()}

    def test_call_sites_are_tallied_exactly(self):
        # Every executed call instruction passes through on_instr, so
        # the site tally is exact — identical for every seed and rate,
        # and equal to the true execution counts: the mid site and each
        # of the two leaf sites run once per loop iteration (50), the
        # print_int builtin once.
        tallies = []
        for seed in (0, 1, 99):
            sink = SamplingSink(rate=37, context_depth=0, seed=seed)
            run_program(_compile(NESTED), sink=sink)
            tallies.append(sink.site_hits)
        assert tallies[0] == tallies[1] == tallies[2]
        assert sorted(tallies[0].values()) == [1, 50, 50, 50]


class TestSampledProfile:
    def test_accumulates_runs_with_advancing_seed(self):
        program = _compile(NESTED)
        acc = SampledProfile(rate=10, context_depth=2, seed=0)
        sample_run(program, profile=acc)
        first = dict(acc.block_samples)
        sample_run(program, profile=acc)
        assert acc.runs == 2
        assert sum(acc.block_samples.values()) > sum(first.values())
        # Two runs of identical work, different seeds: not the exact
        # same sample points twice.
        assert acc.block_samples != {k: 2 * v for k, v in first.items()}

    def test_site_counts_match_instrumented_training(self):
        sources = [("m", NESTED)]
        sampled = sample_train(sources, [()], rate=25, seed=0)
        exact = train(sources, [()])
        assert sampled.site_counts == exact.site_counts

    def test_length_bias_is_corrected(self):
        # A straight-line block's estimated count must track the true
        # count, not the block's instruction length.
        sources = [("m", NESTED)]
        db = sample_train(sources, [()], rate=10, seed=0)
        exact = train(sources, [()])
        loop_keys = [
            k for k, v in exact.block_counts.items() if v >= 50
        ]
        assert loop_keys
        for key in loop_keys:
            assert db.block_counts[key] == pytest.approx(
                exact.block_counts[key], rel=0.5
            )

    def test_flow_smoothing_equalizes_control_equivalent_blocks(self):
        sources = [("m", DIAMOND)]
        db = sample_train(sources, [(4,)] * 30, rate=3, seed=0)
        program = compile_program(sources)
        proc = program.proc("main")
        for cls in control_equivalent_classes(proc):
            counts = {
                db.block_counts.get(("main", label)) for label in cls
            }
            counts.discard(None)
            assert len(counts) <= 1, cls

    def test_database_is_sampled_v3_with_fingerprints(self):
        db = sample_train([("m", DIAMOND)], [(3,)] * 20, rate=5, seed=0)
        assert db.sampled
        assert db.context_depth == 2
        assert 0.0 < db.overall_confidence() < 1.0
        assert "main" in db.fingerprints
        assert db.to_text().startswith("profiledb 3 crc32 ")

    def test_rate_one_sampling_reproduces_exact_counts(self):
        # Sampling every instruction leaves no estimation error beyond
        # rounding: the smoothed block counts must match instrumented
        # training.  This is the soundness check on flow smoothing — a
        # pooling step that merged blocks with genuinely different
        # counts would diverge here.
        sources = [("m", NESTED)]
        exact = train(sources, [()])
        sam = sample_train(sources, [()], rate=1, seed=0)
        for key, count in exact.block_counts.items():
            assert abs(sam.block_counts.get(key, 0) - count) <= max(
                2, 0.05 * count
            ), key

    def test_unexecuted_sites_recorded_as_zero(self):
        # The else arm never runs; its sites (if any) and every program
        # site must still be present so consumers can tell "observed
        # cold" from "never measured".
        program = _compile(NESTED)
        db = sample_train([("m", NESTED)], [()], rate=25, seed=0)
        program_sites = {
            ("m", instr.site_id)
            for proc in program.all_procs()
            for block in proc.blocks.values()
            for instr in block.instrs
            if isinstance(instr, CALL_INSTRS)
        }
        assert program_sites <= set(db.site_counts)


class TestControlEquivalence:
    def test_diamond_partition(self):
        proc = _compile(DIAMOND).proc("main")
        classes = control_equivalent_classes(proc)
        by_label = {
            label: i for i, cls in enumerate(classes) for label in cls
        }
        labels = set(proc.rpo_labels())
        assert set(by_label) == labels
        arms = set(proc.blocks[proc.entry].successors())
        assert len(arms) == 2
        left, right = sorted(arms)
        assert by_label[left] != by_label[right]
        ret_label = next(
            label
            for label, block in proc.blocks.items()
            if block.instrs and isinstance(block.instrs[-1], Ret)
        )
        assert by_label[proc.entry] == by_label[ret_label]

    def test_loop_body_not_equivalent_to_entry(self):
        proc = _compile(NESTED).proc("main")
        classes = control_equivalent_classes(proc)
        by_label = {
            label: i for i, cls in enumerate(classes) for label in cls
        }
        from repro.analysis.loops import loop_depths

        depths = loop_depths(proc)
        looped = [label for label, d in depths.items() if d > 0]
        assert looped
        for label in looped:
            assert by_label[label] != by_label[proc.entry]


class TestRoundTrip:
    def test_v3_round_trip_preserves_everything(self, tmp_path):
        db = sample_train([("m", NESTED)], [()], rate=10, seed=2)
        path = tmp_path / "p.db"
        db.save(str(path))
        back = ProfileDatabase.load(str(path))
        assert back.sampled
        assert back.sample_rate == pytest.approx(db.sample_rate, abs=1e-4)
        assert back.context_depth == db.context_depth
        assert back.block_counts == db.block_counts
        assert back.block_samples == db.block_samples
        assert back.context_counts == db.context_counts
        assert back.site_counts == db.site_counts
        assert back.fingerprints == db.fingerprints
        assert back.overall_confidence() == pytest.approx(
            db.overall_confidence()
        )

    def test_exact_database_still_writes_v3_with_fingerprints(self):
        sources = [("m", DIAMOND)]
        db = train(sources, [(1,)])
        text = db.to_text()
        assert text.startswith("profiledb 3 crc32 ")
        assert "\nfp main " in text
        assert not db.sampled
        assert db.overall_confidence() == 1.0
        # Fingerprinted without the training probes: a fresh compile of
        # the same sources matches every procedure.
        assert db.fingerprints == fingerprint_program(compile_program(sources))

    def test_legacy_v1_payload_loads(self):
        text = (
            "profiledb 1\n"
            "runs 1 steps 40\n"
            "block main entry 7\n"
            "site m 0 7\n"
        )
        db = ProfileDatabase.from_text(text)
        assert not db.sampled
        assert db.block_counts == {("main", "entry"): 7}
        assert db.site_counts == {("m", 0): 7}
        assert db.overall_confidence() == 1.0
        assert db.context_view() is None
