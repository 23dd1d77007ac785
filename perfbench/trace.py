"""Span recorder and the timing wrappers the traced run installs.

Layers are measured from outside the toolchain.  The traced run swaps
the module attributes the toolchain calls through for thin timing
wrappers, keeps one span per call in memory (name, start, end, parent)
and derives the per-layer table from those spans alone, so the Chrome
trace it writes (through the toolchain's own :class:`Tracer`) and the
table it reports cannot disagree.

Only this process is touched, and :func:`installed` puts every original
attribute back when it exits, on error as well.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs.tracer import Tracer, worker_span

# Root span of one timed operation (a build or a simulation).  Shares
# are taken of the summed wall of these spans; their self time is the
# part no wrapped layer covers (``untraced``).
OP = "op"
UNTRACED = "untraced"

# (module, attribute, layer).  Each attribute is the name a caller looks
# up at call time, so replacing it reaches every call the toolchain and
# the HLO driver make through it.
WRAPPED_FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.linker.toolchain", "compile_program", "frontend"),
    ("repro.linker.toolchain", "to_isom_text", "linker"),
    ("repro.linker.toolchain", "from_isom_text", "linker"),
    ("repro.linker.toolchain", "link_modules", "linker"),
    ("repro.linker.toolchain", "instrument_program", "profile"),
    ("repro.linker.toolchain", "annotate_program", "profile"),
    ("repro.linker.toolchain", "run_program", "interp.train"),
    ("repro.linker.toolchain", "run_hlo", "core.hlo"),
    ("repro.core.hlo", "inline_pass", "core.inline"),
    ("repro.core.hlo", "clone_pass", "core.clone"),
    ("repro.core.hlo", "optimize_program", "opt.stage"),
    ("repro.core.regions", "demand_stage", "core.demand"),
    ("repro.core.inliner", "optimize_proc", "opt.reopt"),
    ("repro.core.cloner", "optimize_proc", "opt.reopt"),
    ("repro.core.regions", "optimize_proc", "opt.reopt"),
)

# Rollback checkpoints: construction and ``restore`` are both timed.
SNAPSHOT_MODULE = "repro.resilience.guard"
SNAPSHOT_CLASSES = ("ProgramSnapshot", "ProcedureSnapshot")
SNAPSHOT_LAYER = "resilience.snapshot"

# Counters a wrapper adds from the wrapped call's result.
RESULT_COUNTS: Dict[str, Tuple[str, Callable]] = {
    "to_isom_text": ("linker.isom_bytes", len),
    "run_program": ("interp.train.steps", lambda result: result.steps),
}


class SpanRecorder:
    """Spans as ``[name, start, end, parent index]``, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        # Made first, so its epoch precedes every span.
        self.tracer = Tracer()
        self.wall_offset = time.time() - time.perf_counter()

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: int) -> None:
        """Record a span measured elsewhere (a derived split of ``parent``)."""
        self.spans.append([name, start, end, parent])


def _timed(recorder: SpanRecorder, layer: str, fn: Callable,
           count: Optional[Tuple[str, Callable]]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.open(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        if count is not None:
            recorder.counts[count[0]] += count[1](result)
        return result

    return wrapper


def _timed_snapshot(recorder: SpanRecorder, base: type) -> type:
    class TimedSnapshot(base):
        def __init__(self, *args, **kwargs):
            index = recorder.open(SNAPSHOT_LAYER)
            try:
                super().__init__(*args, **kwargs)
            finally:
                recorder.close(index)
            recorder.counts["resilience.snapshots"] += 1

        def restore(self, *args, **kwargs):
            index = recorder.open(SNAPSHOT_LAYER)
            try:
                return super().restore(*args, **kwargs)
            finally:
                recorder.close(index)
                recorder.counts["resilience.restores"] += 1

    TimedSnapshot.__name__ = base.__name__
    TimedSnapshot.__qualname__ = base.__qualname__
    return TimedSnapshot


@contextmanager
def installed(recorder: SpanRecorder) -> Iterator[None]:
    """Wrap every traced attribute for the duration of the block."""
    saved = []
    try:
        for module_name, attr, layer in WRAPPED_FUNCTIONS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr,
                    _timed(recorder, layer, original, RESULT_COUNTS.get(attr)))
        module = importlib.import_module(SNAPSHOT_MODULE)
        for attr in SNAPSHOT_CLASSES:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _timed_snapshot(recorder, original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_table(recorder: SpanRecorder) -> Dict[str, dict]:
    """{layer: self_s, share, calls} from the spans.

    A span's self time is its duration minus its children's durations.
    Only spans under an ``op`` root count; the op's own self time is the
    ``untraced`` layer, so the shares of all layers sum to one.
    """
    spans = recorder.spans
    child_s = [0.0] * len(spans)
    root = [0] * len(spans)
    for index, (_name, start, end, parent) in enumerate(spans):
        root[index] = index if parent < 0 else root[parent]
        if parent >= 0:
            child_s[parent] += end - start
    wall = 0.0
    self_s: Counter = Counter()
    calls: Counter = Counter()
    for index, (name, start, end, parent) in enumerate(spans):
        if spans[root[index]][0] != OP:
            continue
        if parent < 0:
            wall += end - start
        layer = UNTRACED if name == OP else name
        self_s[layer] += end - start - child_s[index]
        calls[layer] += 1
    return {
        layer: {
            "self_s": self_s[layer],
            "share": self_s[layer] / wall if wall else 0.0,
            "calls": calls[layer],
        }
        for layer in sorted(self_s)
    }


def write_chrome_trace(recorder: SpanRecorder, path: str) -> None:
    """Write the spans as Chrome trace JSON (Perfetto, chrome://tracing).

    The spans go through the recorder's :class:`Tracer` as wall-clock
    spans on its main row (tid 0), so the file has the toolchain's own
    trace format.
    """
    offset = recorder.wall_offset
    recorder.tracer.absorb_worker_spans(
        worker_span(name, start + offset, end + offset, pid=0, cat=name.split(".")[0])
        for name, start, end, _parent in recorder.spans
    )
    recorder.tracer.write(path)
