"""Experiment laboratory: cached builds and measurements for the benches.

Every figure/table reproduction needs the same expensive artifacts —
trained toolchains, scope builds, machine-model runs — so the ``Lab``
memoizes them by configuration key.  The suite default budget is 400%
rather than the paper's 100%: our routines are one to two orders of
magnitude smaller than SPEC's, and under the quadratic cost model a
single inline is a far larger *relative* cost jump, so the knee of the
budget curve (Figure 8) sits higher.  EXPERIMENTS.md discusses this
substitution; ``bench_fig8_budget`` measures the knee directly.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Tuple

from ..core.config import HLOConfig
from ..interp.interpreter import Result
from ..linker.toolchain import BuildResult, Toolchain
from ..machine.metrics import MachineMetrics
from ..machine.pa8000 import MachineConfig
from ..workloads.suite import get_workload

SUITE_BUDGET_PERCENT = 400.0

# Figure 6 variants: which transforms are enabled.
VARIANTS = ("neither", "inline", "clone", "both")


def variant_config(base: HLOConfig, variant: str) -> HLOConfig:
    if variant == "neither":
        return replace(base, enable_inlining=False, enable_cloning=False)
    if variant == "inline":
        return replace(base, enable_cloning=False)
    if variant == "clone":
        return replace(base, enable_inlining=False)
    if variant == "both":
        return base
    raise ValueError("unknown variant {!r}".format(variant))


class Lab:
    """Caches toolchains, builds, and machine runs per configuration."""

    def __init__(
        self,
        budget_percent: float = SUITE_BUDGET_PERCENT,
        machine: Optional[MachineConfig] = None,
    ):
        self.budget_percent = budget_percent
        self.machine = machine or MachineConfig()
        self._toolchains: Dict[str, Toolchain] = {}
        self._builds: Dict[Tuple, BuildResult] = {}
        self._runs: Dict[Tuple, Tuple[MachineMetrics, Result]] = {}

    def default_config(self) -> HLOConfig:
        return HLOConfig(budget_percent=self.budget_percent)

    def toolchain(self, workload: str) -> Toolchain:
        tc = self._toolchains.get(workload)
        if tc is None:
            w = get_workload(workload)
            tc = Toolchain(
                list(w.sources),
                train_inputs=[list(t) for t in w.train_inputs],
            )
            self._toolchains[workload] = tc
        return tc

    def build(
        self,
        workload: str,
        scope: str = "cp",
        config: Optional[HLOConfig] = None,
    ) -> BuildResult:
        """Build ``workload`` at ``scope``; cached by workload, scope and config."""
        cfg = config or self.default_config()
        key = (workload, scope, cfg.fingerprint())
        cached = self._builds.get(key)
        if cached is None:
            cached = self.toolchain(workload).build(scope, cfg)
            self._builds[key] = cached
        return cached

    def measure(
        self,
        workload: str,
        scope: str = "cp",
        config: Optional[HLOConfig] = None,
    ) -> Tuple[MachineMetrics, Result]:
        """Build and run on the reference input; cached like build()."""
        cfg = config or self.default_config()
        key = (workload, scope, cfg.fingerprint())
        cached = self._runs.get(key)
        if cached is None:
            build = self.build(workload, scope, cfg)
            w = get_workload(workload)
            cached = build.run(w.ref_input, machine=self.machine)
            self._runs[key] = cached
        return cached

    def measure_variant(
        self, workload: str, variant: str, scope: str = "cp"
    ) -> Tuple[MachineMetrics, Result]:
        cfg = variant_config(self.default_config(), variant)
        return self.measure(workload, scope, cfg)
