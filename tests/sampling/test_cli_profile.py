"""`repro profile {sample,merge,report,check}` and sampling-aware
`train`/`compile` flags, end to end through the CLI driver."""

import json

import pytest

from repro.cli import main
from repro.profile.database import ProfileDatabase

PROGRAM = """
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

# helper's body differs: its fingerprint goes stale, main's stays fresh.
PROGRAM_EDITED = """
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


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "prog.mc"
    path.write_text(PROGRAM)
    return str(path)


def _sample(source_file, tmp_path, name="p.db", rate=10, extra=()):
    out = str(tmp_path / name)
    code = main(
        ["profile", "sample", source_file, "--rate", str(rate), "-o", out]
        + list(extra)
    )
    assert code == 0
    return out


class TestProfileSample:
    def test_writes_a_sampled_database(self, source_file, tmp_path, capsys):
        out = _sample(source_file, tmp_path)
        captured = capsys.readouterr().out
        assert "sampled 1 run(s)" in captured
        assert "confidence" in captured
        db = ProfileDatabase.load(out)
        assert db.sampled
        assert db.sample_count > 0

    def test_workload_sources_need_no_files(self, tmp_path, capsys):
        out = str(tmp_path / "wl.db")
        code = main(
            ["profile", "sample", "--workload", "compress",
             "--rate", "100", "-o", out]
        )
        assert code == 0
        assert ProfileDatabase.load(out).sampled

    def test_unknown_workload_fails(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["profile", "sample", "--workload", "nope",
                  "-o", str(tmp_path / "x.db")])

    def test_sources_required(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["profile", "sample", "-o", str(tmp_path / "x.db")])


class TestProfileMerge:
    def test_merge_accumulates_runs(self, source_file, tmp_path, capsys):
        a = _sample(source_file, tmp_path, "a.db", extra=["--seed", "0"])
        b = _sample(source_file, tmp_path, "b.db", extra=["--seed", "7"])
        out = str(tmp_path / "merged.db")
        code = main(["profile", "merge", a, b, "-o", out])
        assert code == 0
        assert "merged 2 database(s)" in capsys.readouterr().out
        merged = ProfileDatabase.load(out)
        assert merged.training_runs == 2
        assert merged.sampled

    def test_merge_with_weights(self, source_file, tmp_path):
        a = _sample(source_file, tmp_path, "a.db")
        b = _sample(source_file, tmp_path, "b.db", extra=["--seed", "3"])
        out = str(tmp_path / "merged.db")
        code = main(
            ["profile", "merge", a, b, "--weights", "3.0,1.0", "-o", out]
        )
        assert code == 0
        assert ProfileDatabase.load(out).training_runs == 2

    def test_weight_count_mismatch_fails(self, source_file, tmp_path):
        a = _sample(source_file, tmp_path, "a.db")
        with pytest.raises(SystemExit):
            main(["profile", "merge", a, "--weights", "1.0,2.0",
                  "-o", str(tmp_path / "m.db")])

    def test_weights_and_decay_are_exclusive(self, source_file, tmp_path):
        a = _sample(source_file, tmp_path, "a.db")
        b = _sample(source_file, tmp_path, "b.db", extra=["--seed", "1"])
        with pytest.raises(SystemExit):
            main(["profile", "merge", a, b, "--weights", "1.0,1.0",
                  "--decay", "0.5", "-o", str(tmp_path / "m.db")])

    def test_merge_with_decay(self, source_file, tmp_path):
        a = _sample(source_file, tmp_path, "a.db")
        b = _sample(source_file, tmp_path, "b.db", extra=["--seed", "4"])
        out = str(tmp_path / "m.db")
        assert main(["profile", "merge", a, b, "--decay", "0.5",
                     "-o", out]) == 0
        assert ProfileDatabase.load(out).training_runs == 2


class TestProfileReport:
    def test_human_readable(self, source_file, tmp_path, capsys):
        db = _sample(source_file, tmp_path)
        code = main(["profile", "report", db, source_file])
        assert code == 0
        out = capsys.readouterr().out
        assert "confidence" in out
        assert "coverage" in out

    def test_json_payload(self, source_file, tmp_path, capsys):
        db = _sample(source_file, tmp_path)
        capsys.readouterr()
        code = main(["profile", "report", db, source_file, "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sampled"]
        assert payload["match_ratio"] == 1.0
        assert payload["staleness"]["stale"] == []

    def test_report_without_sources_skips_staleness(
        self, source_file, tmp_path, capsys
    ):
        db = _sample(source_file, tmp_path)
        capsys.readouterr()
        code = main(["profile", "report", db, "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sampled"]


class TestProfileCheck:
    def test_fresh_profile_passes(self, source_file, tmp_path, capsys):
        db = _sample(source_file, tmp_path)
        code = main(["profile", "check", db, source_file])
        assert code == 0
        assert "profile check: OK" in capsys.readouterr().out

    def test_trained_profile_passes(self, source_file, tmp_path, capsys):
        db = str(tmp_path / "t.db")
        assert main(["train", source_file, "-o", db]) == 0
        code = main(["profile", "check", db, source_file])
        assert code == 0
        assert "profile check: OK" in capsys.readouterr().out

    def test_stale_procedure_fails_the_gate(
        self, source_file, tmp_path, capsys
    ):
        db = _sample(source_file, tmp_path)
        edited = tmp_path / "edited.mc"
        edited.write_text(PROGRAM_EDITED)
        code = main(["profile", "check", db, str(edited)])
        assert code == 1
        captured = capsys.readouterr()
        assert "stale" in captured.err

    def test_remap_salvages_and_passes_next_check(
        self, source_file, tmp_path, capsys
    ):
        db = _sample(source_file, tmp_path)
        edited = tmp_path / "edited.mc"
        edited.write_text(PROGRAM_EDITED)
        remapped = str(tmp_path / "remapped.db")
        code = main(
            ["profile", "check", db, str(edited), "--remap", remapped]
        )
        assert code == 1  # the input db is still stale
        assert "remapped:" in capsys.readouterr().out
        # The salvaged database passes a fresh check against the same
        # sources with the default match floor: only main's counts
        # remain and they are fresh.
        code = main(["profile", "check", remapped, str(edited)])
        assert code == 0

    def test_thin_confidence_fails_the_gate(
        self, source_file, tmp_path, capsys
    ):
        thin = _sample(source_file, tmp_path, rate=5000)
        code = main(
            ["profile", "check", thin, source_file,
             "--min-confidence", "0.99"]
        )
        assert code == 1
        assert "confidence" in capsys.readouterr().err


class TestTrainSampling:
    def test_train_sample_rate_writes_sampled_db(
        self, source_file, tmp_path, capsys
    ):
        out = str(tmp_path / "t.db")
        code = main(
            ["train", source_file, "--sample-rate", "10", "-o", out]
        )
        assert code == 0
        assert "sampled" in capsys.readouterr().out
        assert ProfileDatabase.load(out).sampled

    def test_train_multiple_inputs_flags_and_chunks(
        self, source_file, tmp_path, capsys
    ):
        out = str(tmp_path / "t.db")
        code = main(
            ["train", source_file,
             "--inputs", "1", "--inputs", "2;3", "-o", out]
        )
        assert code == 0
        assert "trained 3 run(s)" in capsys.readouterr().out
        db = ProfileDatabase.load(out)
        assert db.training_runs == 3
        assert not db.sampled


class TestCompileWithSampledProfile:
    def test_confident_sampled_profile_feeds_the_build(
        self, source_file, tmp_path, capsys
    ):
        db = str(tmp_path / "t.db")
        main(["train", source_file, "--sample-rate", "10",
              "--inputs", "0;0;0", "-o", db])
        capsys.readouterr()
        code = main(
            ["compile", source_file, "--scope", "cp", "--profile", db]
        )
        assert code == 0
        assert "static frequency estimates" not in capsys.readouterr().err

    def test_low_confidence_profile_degrades_to_static(
        self, source_file, tmp_path, capsys
    ):
        thin = _sample(source_file, tmp_path, rate=5000)
        capsys.readouterr()
        code = main(
            ["compile", source_file, "--scope", "cp", "--profile", thin]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "low-confidence sampled profile" in err
        assert "static frequency estimates" in err

    def test_strict_makes_low_confidence_fatal(self, source_file, tmp_path):
        thin = _sample(source_file, tmp_path, rate=5000)
        with pytest.raises(SystemExit, match="low-confidence"):
            main(["compile", source_file, "--scope", "cp",
                  "--profile", thin, "--strict"])
