"""Guest execution profiling: flamegraphs out of the event stream.

Build-time observability (PR 3) answers "where did the *compiler*
spend its time"; this module answers the same question for the *guest
program* the interpreter is running.  :class:`RuntimeProfiler` is an
:class:`~repro.interp.events.EventSink` riding the same shadow-stack
technique as the sampling profile collector
(:class:`~repro.sampling.sampler.SamplingSink`): every instruction
event advances a seeded, jittered countdown, and when it expires the
profiler records the *entire* current call stack — not the k-deep
context the inliner consumes, but the root-to-leaf chain a flamegraph
wants.  Call edges are tallied exactly on the side (every executed
call already passes through the event stream), so caller→callee
counts carry no sampling noise.

Because both engines — reference and fast — deliver byte-identical
event streams per sink mode (the differential fuzz harness pins this),
the same profiler attached to the same program, inputs, and seed
produces the *same samples* on every engine; the flamegraph is a
property of the execution, not of the engine that ran it.

Exports: collapsed-stack text (``main;hot;inner 1234``, one context
per line — Brendan Gregg's ``flamegraph.pl`` / ``inferno`` input) and
speedscope JSON (https://www.speedscope.app/file-format-schema.json,
``type: sampled``), both weighted in *estimated instructions*: raw
sample counts scaled by the measured events-per-sample rate, so at
``rate=1`` the weights are exact instruction counts per context.

Zero-cost when off: the profiler is only ever attached when the user
asked for a flame (``repro run --flame-out``, ``repro profile
flame``); an unobserved run passes ``sink=None`` and the engines'
capability negotiation emits no callback code at all.  A constructed
but *disabled* profiler (``enabled=False``) negotiates every
capability off, which the bench harness uses to price the "attached
but off" path (it compiles to the same zero-callback plans).
"""

from __future__ import annotations

import json
import random
from typing import Dict, List, Optional, Tuple

from ..interp.events import EventSink
from ..ir.instructions import CALL_INSTRS

FLAME_SCHEMA = "https://www.speedscope.app/file-format-schema.json"

DEFAULT_FLAME_RATE = 20
DEFAULT_FLAME_JITTER = 0.2

StackKey = Tuple[str, ...]


class RuntimeProfiler(EventSink):
    """Samples full call stacks off the interpreter event stream.

    ``rate``
        Nominal instruction events between stack samples (1 = sample
        every instruction, i.e. exact attribution).
    ``seed`` / ``jitter``
        Seeded jitter spread for the inter-sample gap, exactly as in
        :class:`~repro.sampling.sampler.SamplingSink` — breaks
        loop-period resonance, keeps runs reproducible.
    ``enabled``
        ``False`` negotiates every capability off: the engines emit
        zero callback code and the profiler records nothing.
    """

    # Full-stack attribution needs exact, in-order instruction events
    # (the countdown defines which instruction each sample lands on)
    # plus call/return for the shadow stack; branch and memory traffic
    # are irrelevant, so engines skip those callbacks entirely.
    needs_branch = False
    needs_mem = False

    def __init__(
        self,
        rate: int = DEFAULT_FLAME_RATE,
        seed: int = 0,
        jitter: float = DEFAULT_FLAME_JITTER,
        enabled: bool = True,
    ) -> None:
        if rate < 1:
            raise ValueError("flame sample rate must be >= 1")
        self.rate = rate
        self.seed = seed
        self.jitter = jitter
        self.enabled = enabled
        if not enabled:
            # Instance-level capability override: a disabled profiler
            # negotiates exactly like sink=None, so the engines build
            # (and share) the zero-callback plans.
            self.needs_instr = False
            self.needs_call = False
            self.needs_return = False
        self.events = 0
        self.samples = 0
        self.stack_samples: Dict[StackKey, int] = {}
        self.call_edges: Dict[Tuple[str, str], int] = {}
        self.max_stack_depth = 0
        self._rng = random.Random(seed)
        self._spread = max(1, int(round(rate * jitter))) if rate > 1 else 0
        self._stack: List[str] = []  # shadow stack of caller names
        self._gap = self._next_gap()

    def _next_gap(self) -> int:
        if self._spread == 0:
            return self.rate
        return max(1, self.rate + self._rng.randint(-self._spread, self._spread))

    # -- EventSink callbacks -------------------------------------------

    def on_instr(self, proc, label, index, instr) -> None:
        self.events += 1
        if isinstance(instr, CALL_INSTRS):
            # Exact per-site tally (the LBR analogue): call edges never
            # go through the sampling countdown.
            callee = getattr(instr, "callee", None) or "<indirect>"
            edge = (proc.name, callee)
            self.call_edges[edge] = self.call_edges.get(edge, 0) + 1
        self._gap -= 1
        if self._gap <= 0:
            self._gap = self._next_gap()
            stack = tuple(self._stack) + (proc.name,)
            self.samples += 1
            self.stack_samples[stack] = self.stack_samples.get(stack, 0) + 1

    def on_call(self, caller, callee_name, kind, n_args) -> None:
        # Builtins never produce a matching on_return; they must not
        # grow the shadow stack (same rule as SamplingSink).
        if kind != "builtin":
            self._stack.append(caller.name)
            depth = len(self._stack) + 1
            if depth > self.max_stack_depth:
                self.max_stack_depth = depth

    def on_return(self, callee_name, caller) -> None:
        if self._stack:
            self._stack.pop()

    def reset_stack(self) -> None:
        """Forget the shadow stack between independent runs (a run
        ending via ``exit()`` leaves frames un-returned)."""
        self._stack = []

    # -- Derived figures -------------------------------------------------

    @property
    def effective_rate(self) -> float:
        """Measured events-per-sample (≈ the nominal rate)."""
        return self.events / self.samples if self.samples else 0.0

    def weighted_stacks(self) -> List[Tuple[StackKey, int]]:
        """(stack, estimated-instructions) per context, deterministic order.

        Raw sample counts are scaled by the measured events-per-sample
        rate so the weights sum to ≈ the executed instruction count;
        at ``rate=1`` they are exact.  Every weight stays >= 1: a
        context that was sampled at all represents at least one
        executed instruction.
        """
        scale = self.effective_rate
        return [
            (stack, max(1, int(round(count * scale))))
            for stack, count in sorted(self.stack_samples.items())
        ]

    # -- Exports -----------------------------------------------------------

    def collapsed(self) -> str:
        """Collapsed-stack text: ``root;child;leaf <weight>`` per line."""
        lines = [
            "{} {}".format(";".join(stack), weight)
            for stack, weight in self.weighted_stacks()
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def speedscope(self, name: str = "repro guest profile") -> dict:
        """The profile as a speedscope ``sampled``-type document."""
        weighted = self.weighted_stacks()
        frame_names = sorted({frame for stack, _w in weighted for frame in stack})
        frame_index = {frame: i for i, frame in enumerate(frame_names)}
        samples = [[frame_index[f] for f in stack] for stack, _w in weighted]
        weights = [weight for _stack, weight in weighted]
        total = sum(weights)
        return {
            "$schema": FLAME_SCHEMA,
            "exporter": "repro",
            "name": name,
            "activeProfileIndex": 0,
            "shared": {"frames": [{"name": f} for f in frame_names]},
            "profiles": [
                {
                    "type": "sampled",
                    "name": name,
                    "unit": "none",
                    "startValue": 0,
                    "endValue": total,
                    "samples": samples,
                    "weights": weights,
                }
            ],
        }

    def write(self, path: str, fmt: str = "auto",
              name: str = "repro guest profile") -> str:
        """Write the profile; returns the format actually written.

        ``fmt`` is ``speedscope``, ``collapsed``, or ``auto`` (by
        extension: ``.json`` → speedscope, anything else collapsed).
        """
        if fmt == "auto":
            fmt = "speedscope" if path.endswith(".json") else "collapsed"
        if fmt not in ("speedscope", "collapsed"):
            raise ValueError("unknown flame format {!r}".format(fmt))
        with open(path, "w") as handle:
            if fmt == "speedscope":
                json.dump(self.speedscope(name), handle, indent=2, sort_keys=True)
                handle.write("\n")
            else:
                handle.write(self.collapsed())
        return fmt

    def format_text(self, limit: Optional[int] = 10) -> str:
        """Human summary: hottest contexts plus the exact hot call edges."""
        weighted = sorted(
            self.weighted_stacks(), key=lambda item: (-item[1], item[0])
        )
        total = sum(weight for _stack, weight in weighted) or 1
        lines = [
            "runtime profile: {} samples / {} events "
            "(rate ~{:.1f}), {} contexts, max depth {}".format(
                self.samples, self.events, self.effective_rate,
                len(self.stack_samples), self.max_stack_depth,
            )
        ]
        shown = weighted if limit is None else weighted[:limit]
        for stack, weight in shown:
            lines.append(
                "  {:6.1%} {}".format(weight / total, ";".join(stack))
            )
        if limit is not None and len(weighted) > limit:
            lines.append("  ... {} more contexts".format(len(weighted) - limit))
        edges = sorted(
            self.call_edges.items(), key=lambda item: (-item[1], item[0])
        )
        if edges:
            lines.append("hot call edges (exact):")
            for (caller, callee), count in edges[: limit or len(edges)]:
                lines.append("  {:>10} {} -> {}".format(count, caller, callee))
        return "\n".join(lines)
