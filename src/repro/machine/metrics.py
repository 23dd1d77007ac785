"""Machine-level metrics — the eight panels of Figure 7."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass
class MachineMetrics:
    """Counts and rates from one simulated run."""

    cycles: float = 0.0
    instructions: int = 0  # retired, including call-convention overhead
    icache_accesses: int = 0
    icache_misses: int = 0
    dcache_accesses: int = 0
    dcache_misses: int = 0
    branches: int = 0
    branch_mispredicts: int = 0
    code_bytes: int = 0
    ir_steps: int = 0  # IR instructions executed (excludes overhead)
    calls: int = 0
    spills: int = 0  # register-pressure memory operations

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    @property
    def icache_miss_rate(self) -> float:
        return self.icache_misses / self.icache_accesses if self.icache_accesses else 0.0

    @property
    def dcache_miss_rate(self) -> float:
        return self.dcache_misses / self.dcache_accesses if self.dcache_accesses else 0.0

    @property
    def branch_miss_rate(self) -> float:
        return self.branch_mispredicts / self.branches if self.branches else 0.0

    def relative_to(self, base: "MachineMetrics") -> Dict[str, float]:
        """The Figure 7 row: quantities scaled to a baseline run, plus
        the rates that the figure reports in absolute terms."""

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        return {
            "relative_cycles": ratio(self.cycles, base.cycles),
            "cpi": self.cpi,
            "relative_icache_accesses": ratio(self.icache_accesses, base.icache_accesses),
            "icache_miss_rate": self.icache_miss_rate,
            "relative_dcache_accesses": ratio(self.dcache_accesses, base.dcache_accesses),
            "dcache_miss_rate": self.dcache_miss_rate,
            "relative_branches": ratio(self.branches, base.branches),
            "branch_miss_rate": self.branch_miss_rate,
        }
