"""Schema validator: accepts real artifacts, rejects malformed ones."""

import json

from repro.obs.ledger import InliningLedger
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.obs.validate import (
    main,
    validate_ledger_jsonl,
    validate_metrics,
    validate_scale,
    validate_trace,
)


class TestTrace:
    def test_rejects_non_object(self):
        assert validate_trace([1, 2]) != []

    def test_rejects_empty_events(self):
        assert validate_trace({"traceEvents": []}) != []

    def test_rejects_missing_fields(self):
        errors = validate_trace({"traceEvents": [{"ph": "X"}]})
        assert any("missing 'name'" in e for e in errors)
        assert any("ts" in e for e in errors)

    def test_rejects_unknown_phase(self):
        errors = validate_trace(
            {"traceEvents": [
                {"name": "x", "ph": "Z", "pid": 1, "tid": 0},
            ]}
        )
        assert any("unknown ph" in e for e in errors)

    def test_accepts_real_tracer_output(self):
        tracer = Tracer()
        with tracer.span("build"):
            pass
        assert validate_trace(tracer.to_dict()) == []


class TestMetrics:
    def test_rejects_missing_sections(self):
        errors = validate_metrics({"schema": 1})
        assert any("counters" in e for e in errors)
        assert any("histograms" in e for e in errors)

    def test_rejects_non_numeric_counter(self):
        errors = validate_metrics(
            {"schema": 1, "counters": {"x": "NaN?"}, "gauges": {},
             "histograms": {}}
        )
        assert any("not a number" in e for e in errors)

    def test_rejects_incomplete_histogram(self):
        errors = validate_metrics(
            {"schema": 1, "counters": {}, "gauges": {},
             "histograms": {"h": {"count": 1}}}
        )
        assert any("p95" in e for e in errors)

    def test_accepts_real_registry_output(self):
        reg = MetricsRegistry()
        reg.count("a", 1)
        reg.observe("b", 0.5)
        assert validate_metrics(reg.to_dict()) == []


class TestLedger:
    def test_rejects_empty(self):
        assert validate_ledger_jsonl("") != []

    def test_rejects_count_mismatch(self):
        ledger = InliningLedger()
        ledger.record("inline", 0, "a", "b", 1, "inlined", "r", "accepted")
        lines = ledger.to_jsonl().strip().split("\n")
        truncated = lines[0] + "\n"  # header claims 1 entry, file has 0
        errors = validate_ledger_jsonl(truncated)
        assert any("considered" in e for e in errors)

    def test_rejects_unknown_decision(self):
        header = json.dumps({"schema": 1, "considered": 1, "decisions": {},
                             "rejection_classes": {}})
        bad = json.dumps({"phase": "inline", "pass": 0, "caller": "a",
                          "callee": "b", "site_id": 1, "decision": "maybe",
                          "reason": "r", "reason_class": "c"})
        errors = validate_ledger_jsonl(header + "\n" + bad + "\n")
        assert any("unknown decision" in e for e in errors)


class TestBenchReports:
    def test_scale_report(self):
        strategy = {
            "strategy_wall_s": 0.5, "strategy_peak_kb": 100.0,
            "sites_considered": 10, "transforms": 3, "final_size": 200,
        }
        tier = {"strategies": {"global": strategy, "demand": strategy}}
        report = {
            "tiers": {"small": dict(tier, n_modules=10),
                      "mega": dict(tier, n_modules=60)},
            "ratios": {"wall_growth_ratio": 0.5, "peak_growth_ratio": 0.5,
                       "sites_growth_ratio": 0.1},
            "parity": {"w": {"global_cycles": 100.0, "demand_cycles": 99.0,
                             "ratio": 0.99}},
            "gates": {"sites_sublinear": True, "cycles_parity": True},
        }
        assert validate_scale(report) == []
        report["gates"]["cycles_parity"] = "yes"
        assert any("not a bool" in e for e in validate_scale(report))


class TestCli:
    def test_main_valid_artifacts(self, tmp_path, capsys):
        tracer = Tracer()
        with tracer.span("build"):
            pass
        trace = tmp_path / "t.json"
        tracer.write(str(trace))
        reg = MetricsRegistry()
        reg.count("x")
        metrics = tmp_path / "m.json"
        reg.write(str(metrics))
        assert main(["--trace", str(trace), "--metrics", str(metrics)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_main_flags_broken_artifact(self, tmp_path, capsys):
        bad = tmp_path / "t.json"
        bad.write_text('{"traceEvents": []}')
        assert main(["--trace", str(bad)]) == 1
        assert "FAIL" in capsys.readouterr().err
