"""Run-time benefit estimation for inline candidates (Section 2.4).

"Once the set of viable inlining sites has been identified, they are
assigned a runtime figure of merit.  High-frequency call sites are
given highest priority.  Sites that occur in blocks executed less
frequently than the routine entry block are assigned a penalty.  This
helps to avoid inlining into a non-critical path."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..analysis.callgraph import CallSite
from ..analysis.freq import cached_block_freqs, site_weight
from ..ir.procedure import ATTR_ALWAYS_INLINE
from .config import HLOConfig


@dataclass
class RankedSite:
    site: CallSite
    weight: float  # absolute execution count (measured or estimated)
    rel_freq: float  # site block count relative to caller entry
    benefit: float
    always_inline: bool = False

    @property
    def sort_key(self) -> Tuple:
        # Highest benefit first; ties prefer smaller callees (cheaper),
        # then a stable identity ordering for determinism.
        callee_size = self.site.callee.size() if self.site.callee else 0
        return (
            0 if self.always_inline else 1,
            -self.benefit,
            callee_size,
            self.site.caller.name,
            self.site.instr.site_id,
        )


def rank_site(
    site: CallSite,
    entry: Dict[str, float],
    config: HLOConfig,
    site_counts: Optional[Dict[Tuple[str, int], int]],
    freq_cache: Optional[Dict[str, Dict[str, float]]] = None,
) -> RankedSite:
    weight = site_weight(site, entry, site_counts, config.use_profile, freq_cache)
    rel = cached_block_freqs(site.caller, config.use_profile, freq_cache).get(
        site.block.label, 0.0
    )
    benefit = weight
    if rel < 1.0:
        benefit *= config.cold_penalty
    always = bool(site.callee) and ATTR_ALWAYS_INLINE in site.callee.attrs
    return RankedSite(site, weight, rel, benefit, always)
