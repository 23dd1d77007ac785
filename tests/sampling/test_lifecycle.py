"""Profile lifecycle: weighted merge, staleness, remap, quality gates."""

import pytest

from repro.frontend.driver import compile_program
from repro.linker.toolchain import Toolchain
from repro.profile.database import ProfileDatabase
from repro.profile.fingerprint import fingerprint_program
from repro.sampling import (
    FRESH,
    MISSING,
    STALE,
    ProfileConfidenceError,
    assess_staleness,
    merge_profiles,
    quality_report,
    remap_database,
    require_confident,
    sample_train,
)

PROGRAM_V1 = """
int helper(int x) { return x * 2 + 1; }
int main() {
  int i;
  int s = 0;
  for (i = 0; i < 40; i = i + 1) {
    s = s + helper(i);
  }
  print_int(s);
  return 0;
}
"""

# helper's body changed (fingerprint differs), main is untouched.
PROGRAM_V2 = """
int helper(int x) {
  if (x > 10) { return x * 3; }
  return x * 2 + 1;
}
int main() {
  int i;
  int s = 0;
  for (i = 0; i < 40; i = i + 1) {
    s = s + helper(i);
  }
  print_int(s);
  return 0;
}
"""


def _db(src=PROGRAM_V1, runs=1, rate=10, seed=0):
    return sample_train([("m", src)], [()] * runs, rate=rate, seed=seed)


class TestMerge:
    def test_equal_weight_merge_accumulates_evidence(self):
        a = _db(seed=0)
        b = _db(seed=5)
        merged = merge_profiles([a, b])
        assert merged.sampled
        assert merged.sample_count == a.sample_count + b.sample_count
        assert merged.training_runs == 2
        assert merged.overall_confidence() >= max(
            a.overall_confidence(), b.overall_confidence()
        )

    def test_weights_shift_the_counts(self):
        a = _db(runs=1)
        b = _db(runs=1, seed=9)
        favored_a = merge_profiles([a, b], weights=[10.0, 1.0])
        favored_b = merge_profiles([a, b], weights=[1.0, 10.0])
        key = max(a.block_counts, key=a.block_counts.get)
        # Normalized weighting: the same block lands closer to the
        # favored database's (normalized) contribution in each merge.
        assert favored_a.block_counts[key] > 0
        assert favored_b.block_counts[key] > 0

    def test_up_weighting_cannot_manufacture_evidence(self):
        a = _db(runs=1)
        boosted = merge_profiles([a, a], weights=[100.0, 100.0])
        assert boosted.sample_count <= 2 * a.sample_count

    def test_decay_prefers_the_newest(self):
        old = _db(runs=1, seed=0)
        new = _db(runs=1, seed=3)
        merged = merge_profiles([old, new], decay=0.5)
        assert merged.sampled
        assert merged.training_runs == 2

    def test_decay_and_weights_are_exclusive(self):
        with pytest.raises(ValueError):
            merge_profiles([_db(), _db()], weights=[1.0, 2.0], decay=0.5)
        with pytest.raises(ValueError):
            merge_profiles([_db(), _db()], decay=1.5)


class TestStaleness:
    def test_fresh_program_all_fresh(self):
        db = _db()
        report = assess_staleness(db, compile_program([("m", PROGRAM_V1)]))
        assert report.procs
        assert all(p.status == FRESH for p in report.procs.values())
        assert report.healthy(0.8)

    def test_edited_procedure_flagged_stale_others_fresh(self):
        db = _db()
        report = assess_staleness(db, compile_program([("m", PROGRAM_V2)]))
        assert report.procs["helper"].status == STALE
        assert report.procs["main"].status == FRESH

    def test_deleted_procedure_flagged_missing(self):
        db = _db()
        gone = compile_program(
            [("m", "int main() { print_int(7); return 0; }")]
        )
        report = assess_staleness(db, gone)
        assert report.procs["helper"].status == MISSING

    def test_fingerprints_decide_even_when_labels_match(self):
        # PROGRAM_V2 renames no label of main but rewrites helper; a
        # pure label-match heuristic could miss a same-shape edit, the
        # fingerprint cannot.
        program_v2 = compile_program([("m", PROGRAM_V2)])
        db = _db()
        fresh_fp = fingerprint_program(program_v2)
        assert db.fingerprints["main"] == fresh_fp["main"]
        assert db.fingerprints["helper"] != fresh_fp["helper"]


class TestRemap:
    def test_remap_salvages_fresh_counts_and_refreshes_fingerprints(self):
        db = _db()
        program_v2 = compile_program([("m", PROGRAM_V2)])
        remapped, report = remap_database(db, program_v2)
        assert report.procs["helper"].status == STALE
        # main's counts survive verbatim.
        for (proc, label), count in db.block_counts.items():
            if proc == "main":
                assert remapped.block_counts[(proc, label)] == count
        # A second assessment against the same program is clean.
        after = assess_staleness(remapped, program_v2)
        assert all(p.status == FRESH for p in after.procs.values())

    def test_remap_drops_missing_procedures(self):
        db = _db()
        gone = compile_program(
            [("m", "int main() { print_int(7); return 0; }")]
        )
        remapped, _report = remap_database(db, gone)
        assert not any(
            proc == "helper" for proc, _label in remapped.block_counts
        )


class TestQualityGates:
    def test_quality_report_shape(self):
        db = _db()
        payload = quality_report(db, compile_program([("m", PROGRAM_V1)]))
        assert payload["sampled"]
        assert 0.0 < payload["confidence"] <= 1.0
        assert 0.0 < payload["coverage"] <= 1.0
        assert payload["match_ratio"] == 1.0
        assert payload["staleness"]["stale"] == []
        assert payload["sampling"]["samples"] == db.sample_count

    def test_require_confident_passes_exact_and_rich_sampled(self):
        exact = ProfileDatabase()
        exact.block_counts[("main", "entry")] = 5
        require_confident(exact)  # exact: always confident
        rich = _db(runs=4, rate=5)
        require_confident(rich)

    def test_require_confident_rejects_thin_evidence(self):
        thin = _db(rate=400)  # a couple of samples at best
        with pytest.raises(ProfileConfidenceError):
            require_confident(thin, minimum=0.99)


class TestLowConfidenceRung:
    @staticmethod
    def _build(rate, runs, strict=False):
        return Toolchain([("m", PROGRAM_V1)], strict=strict).rebuild_with_profile(
            _db(runs=runs, rate=rate), "cp"
        )

    def test_toolchain_degrades_on_thin_sampled_profile(self, capsys):
        # Rate far above the run length: almost no samples, confidence
        # under the floor.  The build must fall back to static
        # heuristics (degradation ladder rung), not crash.
        result = self._build(rate=5000, runs=1)
        assert result.diagnostics.profile_fallback
        assert "confidence" in result.diagnostics.profile_fallback

    def test_confident_sampled_profile_is_used(self):
        result = self._build(rate=10, runs=3)
        assert not result.diagnostics.profile_fallback

    def test_strict_build_hard_fails_on_thin_profile(self):
        from repro.resilience.errors import StrictModeError

        with pytest.raises(StrictModeError):
            self._build(rate=5000, runs=1, strict=True)
