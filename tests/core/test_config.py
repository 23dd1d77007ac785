"""HLOConfig knob helpers and defaults."""

from repro.core import HLOConfig


class TestDefaults:
    def test_paper_defaults(self):
        cfg = HLOConfig()
        # "By default the inliner will try to limit compile-time
        # increases to 100% over no inlining."
        assert cfg.budget_percent == 100.0
        assert cfg.pass_limit == 4
        assert cfg.enable_inlining and cfg.enable_cloning
        assert cfg.use_profile and cfg.cross_module
        assert not cfg.enable_outlining  # Section 5 future work: opt-in

    def test_with_scope_copies(self):
        cfg = HLOConfig()
        module_scope = cfg.with_scope(cross_module=False, use_profile=False)
        assert not module_scope.cross_module and not module_scope.use_profile
        # The original is untouched (dataclasses.replace semantics).
        assert cfg.cross_module and cfg.use_profile

    def test_variant_helpers(self):
        cfg = HLOConfig()
        assert not cfg.inline_only().enable_cloning
        assert cfg.inline_only().enable_inlining
        assert not cfg.clone_only().enable_inlining
        assert cfg.clone_only().enable_cloning
        neither = cfg.neither()
        assert not neither.enable_inlining and not neither.enable_cloning

    def test_helpers_preserve_other_knobs(self):
        cfg = HLOConfig(budget_percent=250.0, cold_penalty=0.5)
        for derived in (cfg.inline_only(), cfg.clone_only(), cfg.neither(),
                        cfg.with_scope(False, True)):
            assert derived.budget_percent == 250.0
            assert derived.cold_penalty == 0.5


class TestFingerprint:
    """The build-cache key must see every strategy-affecting knob.

    A knob that changes codegen but not the fingerprint makes warm
    cache hits serve artifacts built under a *different* configuration
    — the exact regression this class pins (a demand build must never
    reuse a global build's cache entry, and vice versa).
    """

    def test_same_config_same_fingerprint(self):
        assert HLOConfig().fingerprint() == HLOConfig().fingerprint()

    def test_strategy_changes_fingerprint(self):
        default = HLOConfig().fingerprint()
        assert HLOConfig(strategy="demand").fingerprint() != default
        # "global" IS the default; spelling it out must not miss cache.
        assert HLOConfig(strategy="global").fingerprint() == default

    def test_every_region_knob_changes_fingerprint(self):
        base = HLOConfig(strategy="demand")
        variants = (
            {"region_size_cap": 100},
            {"region_budget_percent": 150.0},
        )
        prints = {base.fingerprint()}
        for kwargs in variants:
            prints.add(HLOConfig(strategy="demand", **kwargs).fingerprint())
        assert len(prints) == 1 + len(variants)

    def test_with_strategy_copies(self):
        cfg = HLOConfig(budget_percent=250.0)
        demand = cfg.with_strategy("demand")
        assert demand.strategy == "demand"
        assert demand.budget_percent == 250.0
        assert cfg.strategy == "global"


class TestBuildStatsWallClock:
    def test_wall_seconds_recorded(self):
        from repro.linker import Toolchain

        tc = Toolchain([("m", "int main() { return 0; }")])
        result = tc.build("c")
        assert result.stats.wall_seconds > 0.0
