"""The fault injector itself, and the formats it attacks.

Every corruption mode must (a) be deterministic from its seed and
(b) actually trip the typed-error detection in the isom and profile
readers — a corruption the reader cannot detect would silently poison
the build instead of triggering the degradation ladder.
"""

import zlib

import pytest

from repro.frontend import compile_module, compile_program
from repro.interp import run_program
from repro.linker import from_isom_text, read_isom, to_isom_text
from repro.opt.pass_manager import default_pipeline
from repro.profile.database import ProfileDatabase
from repro.profile.instrument import instrument_program
from repro.resilience import (
    CORRUPTION_MODES,
    FaultInjector,
    IsomError,
    ProfileFormatError,
)
from repro.sampling.sampler import SampledProfile, sample_run

LIB = """
static int twice(int x) { return x + x; }
int api(int x) { return twice(x) + 3; }
"""


def sample_isom():
    return to_isom_text(compile_module(LIB, "lib"))


def sample_profile_text():
    sources = [("main", "int main() { print_int(input(0) + 1); return 0; }")]
    program = compile_program(sources)
    probe_map = instrument_program(program)
    result = run_program(program, [5])
    db = ProfileDatabase.from_training_run(
        program, probe_map, result.probe_counts, result.steps
    )
    return db.to_text()


V3_MODES = ("v3-sampling", "v3-obs", "v3-ctx", "v3-fp")

V3_SOURCES = [
    (
        "main",
        "int helper(int x) { return x * 2 + 1; }\n"
        "int main() { int i = 0; int acc = 0;\n"
        "  while (i < 40) { acc = acc + helper(i); i = i + 1; }\n"
        "  print_int(acc); return 0; }\n",
    )
]


def trained_v3_text():
    """An exact (instrumented) v3 database: fp records, no sampling."""
    program = compile_program(V3_SOURCES)
    probe_map = instrument_program(program)
    result = run_program(program, [5])
    db = ProfileDatabase.from_training_run(
        program, probe_map, result.probe_counts, result.steps
    )
    return db.to_text()


def sampled_v3_text():
    """A sampled v3 database: sampling/obs/ctx records present."""
    program = compile_program(V3_SOURCES)
    profile = SampledProfile(rate=3, context_depth=2, seed=11)
    sample_run(program, [5], profile=profile)
    return profile.to_database(program).to_text()


def payload_checksum_ok(text):
    header, _, payload = text.partition("\n")
    computed = format(zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF, "08x")
    return header.split()[-1] == computed


class TestDeterminism:
    @pytest.mark.parametrize("mode", CORRUPTION_MODES)
    def test_same_seed_same_corruption(self, mode):
        text = sample_isom()
        a = FaultInjector(seed=42, mode=mode).corrupt_text(text)
        b = FaultInjector(seed=42, mode=mode).corrupt_text(text)
        assert a == b

    def test_different_seed_different_truncation(self):
        text = sample_isom()
        cuts = {
            len(FaultInjector(seed=s, mode="truncate").corrupt_text(text))
            for s in range(8)
        }
        assert len(cuts) > 1

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector(mode="solar-flare")

    def test_injected_log_records_fired_faults(self):
        injector = FaultInjector(seed=0, isom_modules=["lib"], corrupt_profile_db=True)
        injector.corrupt_isom(sample_isom(), "lib")
        injector.corrupt_isom(sample_isom(), "other")  # not targeted: no entry
        injector.corrupt_profile(sample_profile_text())
        assert injector.injected == ["isom:truncate:lib", "profile:truncate"]


class TestIsomDetection:
    @pytest.mark.parametrize(
        "mode,kind",
        [
            ("truncate", "corrupted"),
            ("garble", "corrupted"),
            ("bitflip-checksum", "corrupted"),
            ("version-skew", "version-skew"),
        ],
    )
    def test_every_mode_detected(self, mode, kind):
        corrupted = FaultInjector(seed=7, mode=mode).corrupt_text(sample_isom())
        with pytest.raises(IsomError) as err:
            from_isom_text(corrupted)
        assert err.value.kind == kind

    def test_error_carries_path(self):
        with pytest.raises(IsomError) as err:
            from_isom_text("garbage", path="/tmp/lib.isom")
        assert err.value.path == "/tmp/lib.isom"
        assert "/tmp/lib.isom" in str(err.value)

    def test_legacy_headerless_isom_still_reads(self):
        _, _, payload = sample_isom().partition("\n")
        mod = from_isom_text(payload)
        assert mod.name == "lib"

    @pytest.mark.parametrize(
        "payload",
        [
            'module "m"\nglobal $g [1] global = abc\n',
            'module "m"\nproc @f() -> int global {\nentry:\n  probe x\n  ret 0\n}\n',
            'module "m"\nproc @f() -> wat global {\nentry:\n  ret 0\n}\n',
            'module "m"\nextern @g (wat) -> int\n',
        ],
        ids=["initializer-word", "probe", "proc-type", "extern-type"],
    )
    def test_headerless_payload_the_ir_refuses_is_malformed(self, payload):
        # No checksum guards a headerless payload, so the reader itself
        # must turn what the IR refuses into the typed error.
        with pytest.raises(IsomError) as err:
            from_isom_text(payload)
        assert err.value.kind == "malformed"

    def test_text_no_encoding_can_hold_is_a_typed_error(self):
        text = sample_isom().replace("module", "module\ud800", 1)
        with pytest.raises(IsomError):
            from_isom_text(text)

    def test_undecodable_file_is_a_typed_error(self, tmp_path):
        path = tmp_path / "lib.isom"
        path.write_bytes(b"\xff\xfe\xfd" + sample_isom().encode("utf-8"))
        with pytest.raises(IsomError):
            read_isom(str(path))


class TestProfileDetection:
    @pytest.mark.parametrize(
        "mode,kind",
        [
            ("truncate", "corrupted"),
            ("garble", "corrupted"),
            ("bitflip-checksum", "corrupted"),
            ("version-skew", "version-skew"),
        ],
    )
    def test_every_mode_detected(self, mode, kind):
        corrupted = FaultInjector(seed=7, mode=mode).corrupt_text(
            sample_profile_text()
        )
        with pytest.raises(ProfileFormatError) as err:
            ProfileDatabase.from_text(corrupted)
        assert err.value.kind == kind

    def test_malformed_line_reports_lineno_and_content(self):
        # Bypass the checksum so the parser reaches the bad line, as a
        # legacy (v1, checksum-free) database would.
        text = "profiledb 1\nruns 1 steps 10\nblock main entry notanint\n"
        with pytest.raises(ProfileFormatError) as err:
            ProfileDatabase.from_text(text)
        assert err.value.lineno == 3
        assert err.value.line == "block main entry notanint"
        assert "line 3" in str(err.value)

    def test_short_line_reports_lineno(self):
        text = "profiledb 1\nblock main\n"
        with pytest.raises(ProfileFormatError) as err:
            ProfileDatabase.from_text(text)
        assert err.value.lineno == 2

    def test_unknown_record_kind_rejected(self):
        text = "profiledb 1\nfrobnicate a b c\n"
        with pytest.raises(ProfileFormatError) as err:
            ProfileDatabase.from_text(text)
        assert "frobnicate" in str(err.value)

    def test_v3_roundtrip_and_v1_compat(self):
        # Trained databases carry procedure fingerprints (the lifecycle
        # layer's staleness anchor), which lifts them to format v3.
        text = sample_profile_text()
        assert text.startswith("profiledb 3 crc32 ")
        assert "\nfp main " in text
        db = ProfileDatabase.from_text(text)
        assert not db.is_empty()
        # A v1 database (payload only, no checksum) still loads.
        _, _, payload = text.partition("\n")
        legacy = ProfileDatabase.from_text("profiledb 1\n" + payload)
        assert legacy.block_counts == db.block_counts


class TestV3RecordCorruption:
    """The ``v3-*`` modes put their damage past the CRC gate: a record the
    checksum rejects never reaches the record parser, so each mode
    re-frames the header over the damaged payload."""

    @pytest.mark.parametrize("mode", V3_MODES)
    def test_detected_on_sampled_database(self, mode):
        """Victim-line path: the record kind exists and gets malformed."""
        corrupted = FaultInjector(seed=7, mode=mode).corrupt_text(sampled_v3_text())
        with pytest.raises(ProfileFormatError) as err:
            ProfileDatabase.from_text(corrupted)
        assert err.value.kind == "malformed"

    @pytest.mark.parametrize("mode", V3_MODES)
    def test_detected_on_exact_database(self, mode):
        """Fallback path: exact profiles lack sampling/obs/ctx records,
        so the injector appends a malformed one; the fault always fires."""
        corrupted = FaultInjector(seed=7, mode=mode).corrupt_text(trained_v3_text())
        with pytest.raises(ProfileFormatError) as err:
            ProfileDatabase.from_text(corrupted)
        assert err.value.kind == "malformed"

    @pytest.mark.parametrize("mode", V3_MODES)
    def test_damage_passes_the_checksum_gate(self, mode):
        corrupted = FaultInjector(seed=7, mode=mode).corrupt_text(sampled_v3_text())
        assert payload_checksum_ok(corrupted)

    @pytest.mark.parametrize("mode", V3_MODES)
    def test_error_reports_the_damaged_line(self, mode):
        corrupted = FaultInjector(seed=7, mode=mode).corrupt_text(sampled_v3_text())
        with pytest.raises(ProfileFormatError) as err:
            ProfileDatabase.from_text(corrupted)
        assert err.value.lineno is not None
        assert err.value.line


class TestWrapPipeline:
    def test_sabotaged_pass_keeps_name_and_position(self):
        injector = FaultInjector(seed=0, crash_pass="cse")
        original = default_pipeline()
        wrapped = injector.wrap_pipeline(original)
        assert [name for name, _ in wrapped] == [name for name, _ in original]
        originals = dict(original)
        for name, run in wrapped:
            if name == "cse":
                assert run is not originals[name]
            else:
                assert run is originals[name]
