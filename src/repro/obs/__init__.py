"""Observability: tracing, metrics, and the decision ledgers.

One :class:`BuildObserver` rides through the whole pipeline — CLI,
toolchain, parallel executor, HLO driver, transforms, resilience
guard — carrying three sinks:

- :class:`~repro.obs.tracer.Tracer` — hierarchical spans exported as
  Chrome trace-event JSON (``--trace-out``, Perfetto-loadable);
- :class:`~repro.obs.metrics.MetricsRegistry` — counters / gauges /
  p50-p95 histograms, the one source of build numbers
  (``--metrics-out``);
- :class:`~repro.obs.ledger.InliningLedger` — every call site the
  inliner or cloner evaluated, with its outcome and reason
  (``--explain-inlining``).

Guest *runtime* observability lives in :mod:`repro.obs.runtime`:
:class:`RuntimeProfiler` is an event sink (not a bundle member) that
attributes guest execution to calling contexts and exports
flamegraphs (``repro run --flame-out``, ``repro profile flame``).

Each sink has a null twin, and :data:`NULL_OBSERVER` bundles them
all, so instrumentation points are always-on method calls with a
no-op fast path — disabling observability costs (nearly) nothing and
needs no conditionals at the call sites.
"""

from .ledger import (
    InliningLedger,
    NULL_LEDGER,
    NullLedger,
    record_decision,
)
from .log import CliLogger, VERBOSITY_LEVELS
from .metrics import (
    MetricsRegistry,
    NULL_METRICS,
    NullMetrics,
    collect_build_metrics,
    collect_runtime_metrics,
    format_build_summary,
)
from .runtime import RuntimeProfiler
from .tracer import NULL_TRACER, NullTracer, Span, Tracer


class BuildObserver:
    """The tracer + metrics + ledger bundle threaded through a build."""

    __slots__ = ("tracer", "metrics", "ledger")

    def __init__(self, tracer=None, metrics=None, ledger=None):
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.ledger = ledger if ledger is not None else NULL_LEDGER

    @property
    def enabled(self) -> bool:
        """True when any sink is live (used to skip setup-only work)."""
        return bool(
            self.tracer.enabled or self.metrics.enabled or self.ledger.enabled
        )


NULL_OBSERVER = BuildObserver()

__all__ = [
    "BuildObserver",
    "CliLogger",
    "InliningLedger",
    "MetricsRegistry",
    "NULL_LEDGER",
    "NULL_METRICS",
    "NULL_OBSERVER",
    "NULL_TRACER",
    "NullLedger",
    "NullMetrics",
    "NullTracer",
    "RuntimeProfiler",
    "Span",
    "Tracer",
    "VERBOSITY_LEVELS",
    "collect_build_metrics",
    "collect_runtime_metrics",
    "format_build_summary",
    "record_decision",
]
