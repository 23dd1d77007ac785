"""The observer end to end: build traces, ledger coverage, rollback.

Covers the satellite requirements: HLOReport per-pass traces and
TransformEvent ordering stay coherent when guarded stages roll back or
quarantine, and a rolled-back stage leaves no phantom ledger decisions.
"""

from repro.analysis import AnalysisManager
from repro.core.budget import Budget
from repro.core.cloner import CloneDatabase
from repro.core.config import HLOConfig
from repro.core.hlo import _guarded_stage, run_hlo
from repro.core.report import HLOReport
from repro.frontend import compile_program
from repro.obs import (
    BuildObserver,
    InliningLedger,
    MetricsRegistry,
    Tracer,
)
from repro.obs.validate import validate_ledger_jsonl, validate_trace
from repro.resilience import FaultInjector, InjectedFault, PassGuard

LIB = """
static int twice(int x) { return x + x; }
static int shift(int x, int k) { return x * k; }
int api(int x) { return twice(x) + shift(x, 2) + 3; }
"""
MAIN = """
extern int api(int x);
int main() {
  int i;
  int acc;
  acc = 0;
  for (i = 0; i < 8; i = i + 1) { acc = acc + api(i); }
  print_int(acc);
  return 0;
}
"""


def program():
    return compile_program([("lib", LIB), ("main", MAIN)])


def full_observer():
    return BuildObserver(
        tracer=Tracer(), metrics=MetricsRegistry(), ledger=InliningLedger()
    )


class TestHealthyRun:
    def test_ledger_covers_every_evaluated_site(self):
        obs = full_observer()
        report = run_hlo(program(), HLOConfig(cross_module=True), observer=obs)
        assert report.sites_considered > 0
        assert obs.ledger.considered == report.sites_considered
        counts = obs.ledger.decision_counts()
        assert sum(counts.values()) == report.sites_considered
        assert validate_ledger_jsonl(obs.ledger.to_jsonl()) == []

    def test_trace_has_stage_hierarchy(self):
        obs = full_observer()
        run_hlo(program(), HLOConfig(cross_module=True), observer=obs)
        names = [e["name"] for e in obs.tracer.events()]
        assert "input-stage" in names
        assert "output-stage" in names
        assert any(n.startswith("inline-pass-") for n in names)
        assert any(n.startswith("clone-pass-") for n in names)
        assert validate_trace(obs.tracer.to_dict()) == []

    def test_null_observer_run_is_identical(self):
        obs = full_observer()
        with_obs = run_hlo(program(), HLOConfig(cross_module=True), observer=obs)
        without = run_hlo(program(), HLOConfig(cross_module=True))
        assert with_obs.inlines == without.inlines
        assert with_obs.clones == without.clones
        assert with_obs.sites_considered == without.sites_considered

    def test_pass_traces_cover_every_pass(self):
        obs = full_observer()
        config = HLOConfig(cross_module=True)
        report = run_hlo(program(), config, observer=obs)
        by_pass = {(t.pass_number, t.phase) for t in report.pass_traces}
        for n in range(report.passes_run):
            assert (n, "clone") in by_pass
            assert (n, "inline") in by_pass
        for trace in report.pass_traces:
            assert trace.cost_after >= 0
            assert trace.performed >= 0


class TestRollback:
    def sabotaged_stage(self, obs, report):
        """A stage body that transforms, records, then dies."""

        def run():
            report.record_inline(0, "main", "api", 1)
            report.sites_considered += 1
            obs.ledger.record("inline", 0, "main", "api", 1, "inlined",
                              "accepted within staged budget", "accepted")
            raise InjectedFault("boom")

        return run

    def test_rolled_back_stage_leaves_no_phantom_records(self):
        prog = program()
        report = HLOReport()
        obs = full_observer()
        budget = Budget(prog, 100.0, 4)
        guard = PassGuard(report, observer=obs)
        result = _guarded_stage(
            guard, prog, "inline", self.sabotaged_stage(obs, report),
            0, "inline", None, report, budget, CloneDatabase(),
            AnalysisManager(prog), obs=obs,
        )
        assert result == 0
        # IR rolled back, and so did every observability side-channel:
        # no transform events, no sites considered, no ledger decisions.
        assert report.inlines == 0
        assert report.events == []
        assert report.sites_considered == 0
        assert obs.ledger.considered == 0
        # The failure itself is visible: a PassFailure plus a trace
        # instant from the guard.
        assert len(report.pass_failures) == 1
        instants = [e for e in obs.tracer.events() if e["ph"] == "i"]
        assert any(e["name"] == "pass-failure:inline" for e in instants)

    def test_ledger_report_invariant_survives_rollback(self):
        prog = program()
        report = HLOReport()
        obs = full_observer()
        budget = Budget(prog, 100.0, 4)
        guard = PassGuard(report, observer=obs)
        _guarded_stage(
            guard, prog, "inline", self.sabotaged_stage(obs, report),
            0, "inline", None, report, budget, CloneDatabase(),
            AnalysisManager(prog), obs=obs,
        )
        assert obs.ledger.considered == report.sites_considered


class TestQuarantine:
    def run_with_crashing_scalar_pass(self, obs):
        injector = FaultInjector(seed=3, crash_pass="cse")
        from repro.opt.pass_manager import default_pipeline

        pipeline = injector.wrap_pipeline(default_pipeline())
        return run_hlo(
            program(), HLOConfig(cross_module=True), pipeline=pipeline,
            observer=obs,
        )

    def test_transform_events_stay_ordered_under_quarantine(self):
        obs = full_observer()
        report = self.run_with_crashing_scalar_pass(obs)
        # The crashing scalar pass fails, quarantines, and the build
        # still transforms; event order must stay monotone by pass.
        assert report.pass_failures
        assert "cse" in report.quarantined_passes
        pass_numbers = [e.pass_number for e in report.events
                        if e.pass_number >= 0]
        assert pass_numbers == sorted(pass_numbers)

    def test_ledger_invariant_and_pass_traces_under_quarantine(self):
        obs = full_observer()
        report = self.run_with_crashing_scalar_pass(obs)
        assert obs.ledger.considered == report.sites_considered
        by_pass = {(t.pass_number, t.phase) for t in report.pass_traces}
        for n in range(report.passes_run):
            assert (n, "clone") in by_pass
            assert (n, "inline") in by_pass
        # Guard failures surfaced on the trace as instants.
        instants = {e["name"] for e in obs.tracer.events() if e["ph"] == "i"}
        assert any(name.startswith("pass-failure:") for name in instants)

    def test_metrics_count_rollbacks(self):
        obs = full_observer()
        report = self.run_with_crashing_scalar_pass(obs)
        assert obs.metrics.value("resilience.rollbacks") == len(
            report.pass_failures
        )
