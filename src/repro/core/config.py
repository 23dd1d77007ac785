"""Configuration knobs for an HLO run.

The defaults mirror the paper: a 100% compile-time budget ("by default
the inliner will try to limit compile-time increases to 100% over no
inlining"), four alternating clone/inline passes, profile use when data
is present, and both transforms enabled.  The ablation benchmarks and
Figure 8 sweep these knobs.

Only values some caller sets are fields here.  Fixed heuristics are
module constants next to their one reader: the benefit thresholds in
``inliner`` and ``cloner``, the use-kind weights in ``cloner``, the
region-formation limits in ``regions`` and the outlining thresholds in
``outliner``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple


@dataclass
class HLOConfig:
    # Budget control (Figure 2 / Figure 8).
    budget_percent: float = 100.0
    pass_limit: int = 4

    # Which transforms run (Figure 6 compares the four combinations).
    enable_inlining: bool = True
    enable_cloning: bool = True

    # Optimization scope (Table 1's base / c rows): with cross_module
    # off, HLO refuses sites whose caller and callee live in different
    # modules, modelling module-at-a-time compilation.
    cross_module: bool = True

    # Profile-directed feedback (Table 1's p rows): with use_profile
    # off, annotated counts are ignored and static heuristics rank sites.
    use_profile: bool = True

    # Inline heuristics.
    cold_penalty: float = 0.25  # benefit multiplier for colder-than-entry sites

    # Clone heuristics.
    clone_groups: bool = True  # greedy sharing of clones across sites
    clone_database: bool = True  # cross-pass clone reuse

    # Re-run the scalar optimizer over transformed routines between
    # passes (Figures 3/4: "optimize ... and recalibrate").
    reoptimize: bool = True

    # Figure 8's validation knob: stop after N inlines + replacements.
    stop_after: Optional[int] = None

    # Aggressive outlining (the paper's Section 5 future work): extract
    # cold blocks into fresh procedures before the clone/inline loop,
    # shrinking hot bodies and freeing quadratic budget for hot-path
    # inlining.  Off by default, as it was for the paper.
    enable_outlining: bool = False

    # ------------------------------------------------------------------
    # Resilience (docs/resilience.md).  Every pass runs behind the
    # guard's snapshot/rollback; these two knobs only tune it.
    # ------------------------------------------------------------------

    # Turn every degradation (pass rollback, quarantine) into a hard
    # error — the CI / debugging mode.
    strict: bool = False

    # Verify IR after each guarded pass application, not only at HLO
    # exit.  Slower; catches corruption at the corrupting pass.
    verify_each_pass: bool = False

    # Modules forced back to module-at-a-time scope (their isoms were
    # corrupt or version-skewed); inline/clone never crosses their
    # boundary even in a cross_module build.
    local_modules: Tuple[str, ...] = ()

    # ------------------------------------------------------------------
    # Inlining strategy (docs/performance.md "Inlining strategies").
    # ------------------------------------------------------------------

    # "global" is the paper's whole-program multi-pass loop; "demand"
    # forms profile-hot regions (Way & Pollock) and walks only
    # region-interior call sites under per-region budgets, so compile
    # work scales with the hot footprint instead of program size.
    strategy: str = "global"

    # Demand-strategy region formation (repro.core.regions): regions
    # grow along dominator / loop structure through hot call sites
    # until the summed member size reaches region_size_cap.
    region_size_cap: int = 200

    # Per-region compile-cost allowance, as a percentage of the
    # region's own quadratic cost (the region-local analogue of
    # budget_percent).  Higher than the global default on purpose: the
    # global budget pools slack from every cold routine, while a region
    # budget has only its own (capped) footprint to draw on — the
    # quadratic delta of merging two similar-size routines exceeds a
    # 100% allowance of their summed cost, so parity with the global
    # strategy on hot code needs a few multiples of the (much smaller)
    # regional base.  Total growth stays bounded by the hot footprint,
    # not program size.
    region_budget_percent: float = 300.0

    def fingerprint(self) -> str:
        """A stable digest of every knob, for incremental-cache keys.

        Two configs with equal fields fingerprint identically; any
        field change — even one irrelevant to the frontend — derives a
        new digest, so cached objects are never shared across configs.
        """
        import hashlib
        from dataclasses import fields

        digest = hashlib.sha256()
        for spec in sorted(fields(self), key=lambda f: f.name):
            digest.update(spec.name.encode("utf-8"))
            digest.update(b"=")
            digest.update(repr(getattr(self, spec.name)).encode("utf-8"))
            digest.update(b"\x00")
        return digest.hexdigest()

    def with_scope(self, cross_module: bool, use_profile: bool) -> "HLOConfig":
        """A copy configured for one of Table 1's scope rows."""
        return replace(self, cross_module=cross_module, use_profile=use_profile)

    def with_strategy(self, strategy: str) -> "HLOConfig":
        """A copy using ``strategy`` ("global" or "demand")."""
        return replace(self, strategy=strategy)

    def with_strict(self) -> "HLOConfig":
        """A copy with every degradation promoted to a hard error."""
        return replace(self, strict=True)

    def with_local_modules(self, modules) -> "HLOConfig":
        """A copy with ``modules`` pinned to module-at-a-time scope."""
        return replace(self, local_modules=tuple(modules))

    def inline_only(self) -> "HLOConfig":
        return replace(self, enable_cloning=False, enable_inlining=True)

    def clone_only(self) -> "HLOConfig":
        return replace(self, enable_inlining=False, enable_cloning=True)

    def neither(self) -> "HLOConfig":
        return replace(self, enable_inlining=False, enable_cloning=False)
