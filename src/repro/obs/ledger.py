"""The inlining-decision ledger: why HLO did (or didn't) transform.

Figure 5 of the paper classifies every call site the optimizer looked
at; Table 1 counts what it did; Figure 8 validates the budget that
stopped it.  All three need the same raw record, which the pipeline
never kept: each evaluation of a call site by the inliner or cloner,
with its outcome.

:class:`InliningLedger` records one :class:`Decision` per evaluation —
``inlined``, ``cloned``, or ``rejected`` — with the reason and its
class:

- a legality class — one of the Section 2.4 screens (``indirect``,
  ``external``, ``varargs``, ``arity-mismatch``, ``fp-reassoc``,
  ``alloca``, ``user-directive``, ``scope``, ``isom-fallback``,
  ``entry-point``);
- ``benefit`` — the site passed the screens but its run-time figure of
  merit fell at or below the threshold (``MIN_INLINE_BENEFIT`` /
  ``MIN_CLONE_BENEFIT``; or, for cloning, no caller-supplied constant
  met an interesting parameter);
- ``budget`` — viable, but the staged compile-time budget was
  exhausted before the site's turn (includes the Figure 8
  ``stop_after`` validation knob);
- ``mechanical`` — scheduled, but the site vanished before the
  transform ran (its caller was deleted or an earlier transform
  rewrote it).

A site evaluated in several passes (or by both transforms) gets one
decision per evaluation; the invariant the acceptance test pins is
``len(entries) == HLOReport.sites_considered`` — both sides are
incremented by the same :func:`record_decision` call.  Guarded-stage
rollbacks truncate the ledger exactly as they roll the report back.

Surfaced by ``--explain-inlining`` as human-readable text and by
``--explain-inlining-out`` as JSONL (one decision object per line).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

LEDGER_SCHEMA_VERSION = 1

DECISIONS = ("inlined", "cloned", "rejected")


class Decision:
    """One evaluation of one call site by one transform pass."""

    __slots__ = (
        "phase", "pass_number", "caller", "callee", "site_id",
        "decision", "reason", "reason_class", "benefit", "region",
    )

    def __init__(
        self,
        phase: str,
        pass_number: int,
        caller: str,
        callee: str,
        site_id: int,
        decision: str,
        reason: str,
        reason_class: str,
        benefit: Optional[float] = None,
        region: str = "",
    ):
        self.phase = phase  # 'inline' | 'clone'
        self.pass_number = pass_number
        self.caller = caller
        self.callee = callee
        self.site_id = site_id
        self.decision = decision
        self.reason = reason
        self.reason_class = reason_class
        self.benefit = benefit
        # Demand-strategy provenance: which hot region requested this
        # evaluation.  Empty for the global strategy.
        self.region = region

    def to_dict(self) -> dict:
        record = {
            "phase": self.phase,
            "pass": self.pass_number,
            "caller": self.caller,
            "callee": self.callee,
            "site_id": self.site_id,
            "decision": self.decision,
            "reason": self.reason,
            "reason_class": self.reason_class,
        }
        if self.benefit is not None:
            record["benefit"] = round(self.benefit, 6)
        if self.region:
            record["region"] = self.region
        return record


class NullLedger:
    """Disabled fast path: every record is a no-op."""

    enabled = False

    def record(self, *args, **kwargs) -> None:
        pass

    def mark(self) -> int:
        return 0

    def rollback_to(self, mark: int) -> None:
        pass

    def truncate_region(self, region: str) -> int:
        return 0


NULL_LEDGER = NullLedger()


class InliningLedger:
    """Every call-site evaluation of one HLO run, in order."""

    enabled = True

    def __init__(self) -> None:
        self.entries: List[Decision] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record(
        self,
        phase: str,
        pass_number: int,
        caller: str,
        callee: str,
        site_id: int,
        decision: str,
        reason: str,
        reason_class: str,
        benefit: Optional[float] = None,
        region: str = "",
    ) -> None:
        self.entries.append(
            Decision(phase, pass_number, caller, callee, site_id,
                     decision, reason, reason_class, benefit, region)
        )

    def mark(self) -> int:
        """Checkpoint for guarded-stage rollback (parallel to
        HLOReport.mark): a rolled-back stage's decisions are phantoms."""
        return len(self.entries)

    def rollback_to(self, mark: int) -> None:
        del self.entries[mark:]

    def truncate_region(self, region: str) -> int:
        """Drop every decision tagged with ``region``; returns the count.

        The demand strategy's guarded rollback truncates by mark (its
        region's decisions are contiguous), then calls this as the
        belt-and-braces sweep so no phantom decision for a rolled-back
        region can survive, whatever the interleaving.
        """
        before = len(self.entries)
        self.entries = [e for e in self.entries if e.region != region]
        return before - len(self.entries)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    @property
    def considered(self) -> int:
        return len(self.entries)

    def decision_counts(self) -> Dict[str, int]:
        counts = {name: 0 for name in DECISIONS}
        for entry in self.entries:
            counts[entry.decision] = counts.get(entry.decision, 0) + 1
        return counts

    def rejection_classes(self) -> Dict[str, int]:
        """Rejected evaluations bucketed by reason class (Figure 5)."""
        classes: Dict[str, int] = {}
        for entry in self.entries:
            if entry.decision == "rejected":
                classes[entry.reason_class] = classes.get(entry.reason_class, 0) + 1
        return classes

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def to_jsonl(self) -> str:
        lines = [
            json.dumps({"schema": LEDGER_SCHEMA_VERSION,
                        "considered": self.considered,
                        "decisions": self.decision_counts(),
                        "rejection_classes": self.rejection_classes()},
                       sort_keys=True)
        ]
        lines.extend(
            json.dumps(entry.to_dict(), sort_keys=True) for entry in self.entries
        )
        return "\n".join(lines) + "\n"

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_jsonl())

    def format_text(self, limit: Optional[int] = None) -> str:
        """The human-readable ``--explain-inlining`` report."""
        counts = self.decision_counts()
        lines = [
            "inlining ledger: {} call-site evaluations "
            "({} inlined, {} cloned, {} rejected)".format(
                self.considered, counts["inlined"], counts["cloned"],
                counts["rejected"],
            )
        ]
        classes = self.rejection_classes()
        if classes:
            lines.append("rejections by class:")
            for clazz in sorted(classes, key=lambda c: (-classes[c], c)):
                lines.append("  {:18s} {}".format(clazz, classes[clazz]))
        shown = self.entries if limit is None else self.entries[:limit]
        for entry in shown:
            tail = ""
            if entry.benefit is not None:
                tail = " (benefit {:.3f})".format(entry.benefit)
            lines.append(
                "  pass {} {:6s} @{} -> @{} site {}: {:8s} {}{}".format(
                    entry.pass_number, entry.phase, entry.caller,
                    entry.callee, entry.site_id, entry.decision,
                    entry.reason, tail,
                )
            )
        if limit is not None and len(self.entries) > limit:
            lines.append("  ... {} more".format(len(self.entries) - limit))
        return "\n".join(lines)


def site_names(site) -> "tuple":
    """(caller, callee, site_id) labels for a call-graph site."""
    caller = site.caller.name
    if site.callee is not None:
        callee = site.callee.name
    else:
        callee = getattr(site.instr, "callee", None) or "<indirect>"
    return caller, callee, site.instr.site_id


def record_decision(
    obs,
    report,
    phase: str,
    pass_number: int,
    site,
    decision: str,
    reason: str,
    reason_class: Optional[str] = None,
    benefit: Optional[float] = None,
    region: str = "",
) -> None:
    """Count one call-site evaluation on the report *and* the ledger.

    Incrementing ``report.sites_considered`` here — the same call that
    appends the ledger entry — is what keeps the acceptance invariant
    (ledger total == sites considered) true by construction.
    """
    if report is not None:
        report.sites_considered += 1
    if obs.ledger.enabled:
        # Imported here, not at module top: repro.core.* imports this
        # module for record_decision, so a top-level core import would
        # be circular.
        from ..core.legality import classify_blocker

        caller, callee, site_id = site_names(site)
        obs.ledger.record(
            phase, pass_number, caller, callee, site_id, decision, reason,
            reason_class if reason_class is not None else classify_blocker(reason),
            benefit,
            region,
        )
