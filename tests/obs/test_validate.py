"""Schema validator: accepts real artifacts, rejects malformed ones."""

import json

import pytest

from repro.linker.toolchain import Toolchain
from repro.obs import BuildObserver
from repro.obs.ledger import InliningLedger
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import FLAME_SCHEMA
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

    def test_rejects_negative_duration_and_untimed_instant(self):
        errors = validate_trace(
            {"traceEvents": [
                {"name": "x", "ph": "X", "pid": 1, "tid": 0, "ts": 0, "dur": -1},
                {"name": "y", "ph": "i", "pid": 1, "tid": 0},
            ]}
        )
        assert errors == [
            "trace: event[0] dur must be a non-negative number",
            "trace: event[1] instant missing 'ts'",
        ]

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

    def test_rejects_non_object_and_missing_schema(self):
        assert validate_metrics([]) == ["metrics: top level must be an object"]
        errors = validate_metrics({"counters": {}, "gauges": {}, "histograms": {}})
        assert errors == ["metrics: missing integer 'schema'"]

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

    def test_rejects_a_header_that_is_not_json(self):
        errors = validate_ledger_jsonl("not json\n")
        assert len(errors) == 1
        assert errors[0].startswith("ledger: header line is not JSON")

    def test_names_each_broken_line(self):
        header = json.dumps({"schema": 1, "considered": 1, "decisions": {}})
        partial = json.dumps({"phase": "inline", "decision": "inlined"})
        errors = validate_ledger_jsonl("\n".join([header, "{", partial]) + "\n")
        assert "ledger: header missing 'rejection_classes'" in errors
        assert any(e.startswith("ledger: line 2 is not JSON") for e in errors)
        assert "ledger: line 3 missing 'site_id'" in errors
        assert not any("considered but" in e for e in errors)  # one entry parsed


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

    def test_scale_report_names_each_missing_section(self):
        assert validate_scale({}) == [
            "scale: missing non-empty object 'tiers'",
            "scale: missing object 'ratios'",
            "scale: missing non-empty object 'parity'",
            "scale: missing non-empty object 'gates'",
        ]
        parity = {"w": {"global_cycles": 1.0, "demand_cycles": 1.0, "ratio": 0.0}}
        errors = validate_scale({"parity": parity})
        assert "scale: parity['w'] ratio 0.0 is not positive" in errors


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

    def test_main_takes_only_the_four_artifact_kinds(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        assert "--trace/--metrics/--ledger/--flame" in capsys.readouterr().err
        report = tmp_path / "bench.json"
        report.write_text("{}")
        with pytest.raises(SystemExit) as exc:
            main(["--bench", str(report)])
        assert exc.value.code == 2

    def test_main_reports_each_unreadable_file(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.json")
        argv = ["--trace", missing, "--metrics", missing,
                "--ledger", missing, "--flame", missing]
        assert main(argv) == 1
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(":")[1].strip() for line in lines] == [
            "trace", "metrics", "ledger", "flame",
        ]
        assert all("cannot load" in line for line in lines)

    def test_main_checks_a_flame_profile(self, tmp_path, capsys):
        doc = {
            "$schema": FLAME_SCHEMA,
            "shared": {"frames": [{"name": "main"}]},
            "profiles": [{"type": "sampled", "samples": [[0]], "weights": [1],
                          "startValue": 0, "endValue": 1}],
        }
        flame = tmp_path / "flame.json"
        flame.write_text(json.dumps(doc))
        assert main(["--flame", str(flame)]) == 0
        doc["profiles"][0]["weights"].append(1)
        flame.write_text(json.dumps(doc))
        assert main(["--flame", str(flame)]) == 1
        assert "1 samples but 2 weights" in capsys.readouterr().err

    def test_main_accepts_a_parallel_builds_trace_metrics_and_ledger(self, tmp_path):
        """What the CI artifacts job checks on compress, on a small program."""
        sources = [
            ("lib", "static int twice(int x) { return x + x; }\n"
                    "int api(int x) { return twice(x) + 1; }\n"),
            ("main", "extern int api(int x);\n"
                     "int main() { print_int(api(input(0))); return 0; }\n"),
        ]
        obs = BuildObserver(tracer=Tracer(), metrics=MetricsRegistry(),
                            ledger=InliningLedger())
        build = Toolchain(sources, train_inputs=[[5]], jobs=2).build(
            "cp", observer=obs
        )
        assert build.report.sites_considered == obs.ledger.considered > 0
        paths = {kind: str(tmp_path / kind) for kind in ("trace", "metrics", "ledger")}
        obs.tracer.write(paths["trace"])
        obs.metrics.write(paths["metrics"])
        obs.ledger.write_jsonl(paths["ledger"])
        assert main(["--trace", paths["trace"], "--metrics", paths["metrics"],
                     "--ledger", paths["ledger"]]) == 0
