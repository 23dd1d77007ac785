"""The bench harness itself: tables, lab caching, runners."""

import pytest

from repro.bench import (
    Lab,
    fig5_callsites,
    format_table,
    geometric_mean,
    scope_anecdote,
    variant_config,
)
from repro.bench.runner import _stop_points
from repro.core import HLOConfig
from repro.workloads import get_workload


class TestTables:
    def test_alignment_and_title(self):
        text = format_table(["a", "longheader"], [[1, 2.5], [333, "x"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "longheader" in lines[1]
        widths = {len(l) for l in lines[1:]}
        assert len(widths) == 1  # all rows padded to the same width

    def test_float_formatting(self):
        text = format_table(["v"], [[0.12345], [12.345], [12345.6]])
        assert "0.123" in text
        assert "12.3" in text
        assert "12346" in text

    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([5.0]) == pytest.approx(5.0)
        assert geometric_mean([]) == 0.0
        assert geometric_mean([0.0, 4.0]) == pytest.approx(4.0)  # zeros dropped


class TestVariantConfig:
    def test_variants(self):
        base = HLOConfig()
        neither = variant_config(base, "neither")
        assert not neither.enable_inlining and not neither.enable_cloning
        inline = variant_config(base, "inline")
        assert inline.enable_inlining and not inline.enable_cloning
        clone = variant_config(base, "clone")
        assert not clone.enable_inlining and clone.enable_cloning
        both = variant_config(base, "both")
        assert both.enable_inlining and both.enable_cloning

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            variant_config(HLOConfig(), "turbo")


class TestLab:
    def test_toolchain_cached(self):
        lab = Lab()
        assert lab.toolchain("sc") is lab.toolchain("sc")

    def test_build_cached_by_key(self):
        lab = Lab()
        first = lab.build("sc", "base")
        assert lab.build("sc", "base") is first
        assert lab.build("sc", "c") is not first

    def test_measure_cached(self):
        lab = Lab()
        m1, r1 = lab.measure("sc", "base")
        m2, r2 = lab.measure("sc", "base")
        assert m1 is m2 and r1 is r2

    def test_a_different_config_is_a_different_build(self):
        lab = Lab()
        default = lab.build("sc", "cp")
        tight = HLOConfig(budget_percent=100)
        built = lab.build("sc", "cp", tight)
        assert built is not default
        assert lab.build("sc", "cp", HLOConfig(budget_percent=100)) is built
        fresh = Lab().toolchain("sc").build("cp", tight)
        assert built.report.inlines == fresh.report.inlines
        assert built.stats.compile_units == fresh.stats.compile_units
        metrics, _ = lab.measure("sc", "cp", tight)
        assert metrics.cycles == fresh.run(get_workload("sc").ref_input)[0].cycles
        assert metrics.cycles != lab.measure("sc", "cp")[0].cycles

    def test_variant_measurements_distinct(self):
        lab = Lab()
        m_neither, _ = lab.measure_variant("sc", "neither")
        m_both, _ = lab.measure_variant("sc", "both")
        assert m_neither.cycles != m_both.cycles

    def test_the_both_variant_is_the_default_build(self):
        """Builds and runs are keyed by what was built, not by how it was named."""
        lab = Lab()
        both = variant_config(lab.default_config(), "both")
        assert lab.build("sc", "cp", both) is lab.build("sc", "cp")
        assert lab.measure_variant("sc", "both") is lab.measure("sc", "cp")
        assert lab.measure_variant("sc", "inline") is not lab.measure("sc", "cp")

    def test_a_labs_budget_is_its_default_config(self):
        tight = Lab(budget_percent=100).build("sc", "cp")
        explicit = Lab().build("sc", "cp", HLOConfig(budget_percent=100))
        assert tight.report.inlines == explicit.report.inlines
        assert tight.stats.compile_units == explicit.stats.compile_units


class TestRunners:
    def test_stop_points_cover_range(self):
        assert _stop_points(0, 5) == [0]
        points = _stop_points(10, 5)
        assert points[0] == 0 and points[-1] == 10
        assert points == sorted(set(points))
        assert _stop_points(2, 10) == [0, 1, 2]

    def test_fig5_shape(self):
        headers, rows = fig5_callsites()
        assert headers[0] == "benchmark" and headers[-1] == "total"
        assert len(rows) == 10
        for row in rows:
            assert row[-1] == sum(row[1:-1])

    def test_scope_anecdote_runs(self):
        headers, rows = scope_anecdote("sc")
        assert [r[0] for r in rows] == ["base", "c", "p", "cp"]
        assert rows[0][2] == 1.0  # base speedup vs itself


class TestPlots:
    def test_ascii_curves_renders(self):
        from repro.bench.plots import ascii_curves

        series = {
            25.0: [(0, 100.0), (5, 90.0)],
            100.0: [(0, 100.0), (10, 60.0)],
        }
        text = ascii_curves(series, width=20, height=6)
        lines = text.splitlines()
        assert any("a" in l for l in lines)  # budget 25 glyph
        assert any("b" in l for l in lines)  # budget 100 glyph
        assert "budget 25%" in text and "budget 100%" in text
        # Axis labels carry the extremes.
        assert "100" in lines[0]

    def test_ascii_curves_empty(self):
        from repro.bench.plots import ascii_curves

        assert ascii_curves({}) == "(no data)"

    def test_single_point(self):
        from repro.bench.plots import ascii_curves

        text = ascii_curves({50.0: [(3, 42.0)]}, width=10, height=4)
        assert "a" in text
