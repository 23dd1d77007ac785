"""The bench-smoke regression gate (pure comparison logic)."""

from __future__ import annotations

from repro.bench.smoke import baseline_view, check


def _report(cycles=1000.0, units=500.0, wall=2.0):
    return {
        "schema": 1,
        "scope": "cp",
        "workloads": {
            "compress": {
                "compile_units": units,
                "cycles": cycles,
                "checksum": "abc",
                "wall_s": wall,
            }
        },
        "totals": {"compile_units": units, "cycles": cycles},
        "build": {"jobs": 4, "serial_wall_s": 1.0, "parallel_wall_s": 1.0,
                  "speedup": 1.0},
        "cache": {"warm_hit_rate": 1.0},
    }


def test_within_threshold_passes():
    baseline = baseline_view(_report())
    assert check(_report(cycles=1100.0), baseline) == []  # +10% < 15%


def test_cycle_regression_fails():
    baseline = baseline_view(_report())
    failures = check(_report(cycles=1200.0), baseline)  # +20%
    assert len(failures) == 1
    assert "cycles" in failures[0]


def test_compile_unit_regression_fails():
    baseline = baseline_view(_report())
    failures = check(_report(units=700.0), baseline)  # +40%
    assert len(failures) == 1
    assert "compile_units" in failures[0]


def test_improvements_never_fail():
    baseline = baseline_view(_report())
    assert check(_report(cycles=100.0, units=50.0), baseline) == []


def test_wall_time_gated_only_on_request():
    baseline = _report()
    slow = _report(wall=10.0)
    assert check(slow, baseline) == []
    assert check(slow, baseline, gate_wall_time=True)


def test_unknown_workload_in_report_is_ignored():
    baseline = baseline_view(_report())
    extra = _report()
    extra["workloads"]["brand_new"] = {"compile_units": 1.0, "cycles": 1.0}
    assert check(extra, baseline) == []


def test_baseline_view_drops_host_dependent_fields():
    view = baseline_view(_report())
    assert "wall_s" not in view["workloads"]["compress"]
    assert "build" not in view and "cache" not in view
