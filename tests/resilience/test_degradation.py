"""The Toolchain degradation ladder, end to end.

Each test pairs a recovery path with its ``--strict`` inversion:

==============================  ==========================  ================
fault                           default behavior            strict behavior
==============================  ==========================  ================
scalar pass raises              rollback + PassFailure      raises
scalar pass corrupts the IR     rebuild, verify each pass   VerifyError
corrupt/skewed isom             module-at-a-time fallback   StrictModeError
corrupt/missing/stale profile   static frequency fallback   StrictModeError
==============================  ==========================  ================
"""

import pytest

from repro.linker import Toolchain
from repro.resilience import (
    FaultInjector,
    InjectedFault,
    StrictModeError,
)

LIB = """
static int tripled(int x) { return x * 3; }
int api(int x) { return tripled(x) + 1; }
"""
MAIN = """
extern int api(int x);
int main() { print_int(api(input(0))); return 0; }
"""
SOURCES = [("lib", LIB), ("main", MAIN)]


def toolchain(**kwargs):
    return Toolchain(SOURCES, train_inputs=[[4]], **kwargs)


@pytest.fixture(scope="module")
def baseline():
    """Behavior of the healthy build, per scope, on a probe input."""
    tc = toolchain()
    return {
        scope: tc.build(scope).run([9])[1].behavior()
        for scope in ("base", "c", "p", "cp")
    }


class TestCrashingPass:
    def test_build_completes_and_behavior_is_unchanged(self, baseline):
        tc = toolchain(fault_injector=FaultInjector(seed=1, crash_pass="constprop"))
        result = tc.build("c")
        assert result.run([9])[1].behavior() == baseline["c"]
        assert result.report.pass_failures
        assert result.degraded
        assert "constprop" in result.report.quarantined_passes
        summary = result.diagnostics.summary(result.report)
        assert "passes quarantined" in summary

    def test_strict_fails_fast(self):
        tc = toolchain(
            strict=True,
            fault_injector=FaultInjector(seed=1, crash_pass="constprop"),
        )
        with pytest.raises(InjectedFault):
            tc.build("c")


class TestCorruptingPass:
    """A pass that corrupts the IR, with per-pass verification off."""

    @pytest.mark.parametrize("scope", ["cp", "base"])
    def test_build_is_rebuilt_verifying_each_pass(self, scope):
        from repro.interp import run_program
        from repro.workloads.suite import get_workload

        w = get_workload("compress")
        ref_input = list(w.ref_input)
        expected = run_program(w.compile(), ref_input, engine="reference").behavior()
        result = Toolchain(
            list(w.sources),
            train_inputs=[list(t) for t in w.train_inputs],
            fault_injector=FaultInjector(corrupt_pass="dce"),
        ).build(scope)
        assert result.run(ref_input)[1].behavior() == expected
        assert result.degraded
        assert result.report.pass_failures
        assert {
            (f.pass_name, f.error_type) for f in result.report.pass_failures
        } == {("dce", "VerifyError")}
        assert any("rebuilt verifying each pass" in w for w in result.diagnostics.warnings)

    def test_strict_still_raises(self):
        from repro.ir.verifier import VerifyError

        tc = toolchain(strict=True, fault_injector=FaultInjector(corrupt_pass="dce"))
        with pytest.raises(VerifyError):
            tc.build("c")


class TestCorruptIsom:
    @pytest.mark.parametrize("mode", ["truncate", "garble", "version-skew"])
    def test_module_falls_back_with_warning(self, mode, baseline):
        tc = toolchain(
            fault_injector=FaultInjector(seed=5, isom_modules=["lib"], mode=mode)
        )
        result = tc.build("c")
        assert result.run([9])[1].behavior() == baseline["c"]
        assert result.diagnostics.module_fallbacks == ["lib"]
        assert any("lib" in w for w in result.diagnostics.warnings)
        assert result.degraded
        # The fallback module's boundary is sealed: nothing was inlined
        # or cloned across it, so the library's exported api survives.
        assert result.program.proc("api") is not None

    def test_healthy_modules_unaffected(self, baseline):
        # Only the targeted module degrades; 'main' still goes through
        # the isom path.
        tc = toolchain(fault_injector=FaultInjector(seed=5, isom_modules=["lib"]))
        result = tc.build("c")
        assert "main" not in result.diagnostics.module_fallbacks

    def test_strict_raises(self):
        tc = toolchain(
            strict=True,
            fault_injector=FaultInjector(seed=5, isom_modules=["lib"]),
        )
        with pytest.raises(StrictModeError) as err:
            tc.build("c")
        assert "lib" in str(err.value)


class TestCorruptProfile:
    @pytest.mark.parametrize("mode", ["truncate", "garble", "bitflip-checksum"])
    def test_static_fallback(self, mode, baseline):
        tc = toolchain(
            fault_injector=FaultInjector(seed=5, corrupt_profile_db=True, mode=mode)
        )
        result = tc.build("p")
        assert result.run([9])[1].behavior() == baseline["p"]
        assert result.diagnostics.profile_fallback
        assert result.profile is None
        assert result.stats.annotated_blocks == 0
        assert "profile: static" in result.diagnostics.summary(result.report)

    def test_strict_raises(self):
        tc = toolchain(
            strict=True,
            fault_injector=FaultInjector(seed=5, corrupt_profile_db=True),
        )
        with pytest.raises(StrictModeError):
            tc.build("p")


class TestStaleProfile:
    @staticmethod
    def stale_db():
        # A database whose every key refers to procedures that do not
        # exist in SOURCES — the shape of a profile trained against a
        # renamed/rewritten program.
        from repro.profile.database import ProfileDatabase

        db = ProfileDatabase()
        db.block_counts = {("ghost", "entry"): 100, ("phantom", "L1"): 40}
        db.training_runs = 1
        db.training_steps = 10
        return db

    def test_stale_profile_degrades_to_static(self, baseline):
        # Zero keys annotate, so the driver must treat the feedback as
        # stale and fall back to static estimation.
        tc = toolchain()
        tc._profile_cache = (self.stale_db(), 0.0)
        result = tc.build("p")
        assert result.run([9])[1].behavior() == baseline["p"]
        assert "stale profile" in result.diagnostics.profile_fallback
        assert result.stats.annotated_blocks == 0

    def test_strict_rejects_stale_profile(self):
        tc = toolchain(strict=True)
        tc._profile_cache = (self.stale_db(), 0.0)
        with pytest.raises(StrictModeError):
            tc.build("p")


class TestCombinedFaults:
    def test_everything_at_once_still_builds(self, baseline):
        # The full ladder in one build: crashing pass, corrupt isom,
        # corrupt profile — the build must still complete and compute
        # the same answers.
        injector = FaultInjector(
            seed=11,
            crash_pass="cse",
            isom_modules=["lib"],
            corrupt_profile_db=True,
        )
        tc = toolchain(fault_injector=injector)
        result = tc.build("cp")
        assert result.run([9])[1].behavior() == baseline["cp"]
        assert result.degraded
        assert result.diagnostics.module_fallbacks == ["lib"]
        assert result.diagnostics.profile_fallback
        assert result.report.pass_failures
        # Every configured fault actually fired.
        kinds = {entry.split(":")[0] for entry in injector.injected}
        assert kinds == {"crash", "isom", "profile"}


class TestHealthyBuildDiagnostics:
    def test_clean_build_reports_clean(self):
        result = toolchain().build("cp")
        assert not result.degraded
        assert result.diagnostics.module_fallbacks == []
        assert result.diagnostics.profile_fallback == ""
        assert result.diagnostics.warnings == []
        summary = result.diagnostics.summary(result.report)
        assert "0 pass failures" in summary
        assert "profile: ok" in summary
