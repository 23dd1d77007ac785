"""The sampling profiler: hardware-counter-style profile collection.

Exact instrumentation (:mod:`repro.profile.instrument`) rewrites the
program — one probe per basic block — and pays for it at both compile
and run time.  Hardware-counted PGO (Wicht et al.) shows the other end
of the spectrum: *sample* the running program every N events and scale
the observations back up.  The estimates are noisy where the evidence
is thin, but the hot paths that actually drive inlining and cloning
decisions accumulate samples fast, so the decisions themselves converge
on the instrumented ones at a fraction of the collection cost.

:class:`SamplingSink` plugs into the interpreter's existing event
stream (:class:`~repro.interp.events.EventSink`) — the program under
measurement is *not* modified.  Every instruction event advances a
countdown; when it expires a sample is taken: the current (procedure,
block) is recorded together with the k-deep *calling context* read off
a shadow call stack maintained from the call/return events.  The
countdown is re-armed to the nominal rate plus seeded jitter, which
breaks the lockstep resonance a fixed period develops with loop bodies
whose trip length divides the period (the classic sampling-bias
failure; hardware profilers randomize the counter for the same
reason).  The seed makes every run reproducible.

Call *sites* are counted exactly rather than estimated: every executed
call instruction already passes through the event stream, so tallying
it is one increment on an event the sink receives anyway — the
software analogue of a branch-record buffer (LBR) riding alongside the
cycle counter.  This matters because call-site counts feed the
inliner's benefit ranking *directly* and a moderately-hot site spans
only a handful of samples, where Poisson noise is worst; block counts
tolerate sampling because only their entry-relative ratios are
consumed.

:class:`SampledProfile` accumulates one or more sampled runs and
converts them into a :class:`~repro.profile.ProfileDatabase`: raw
sample observations are scaled by the measured events-per-sample rate
into estimated block counts, exact call tallies become the site
counts, and the raw observation counts and context attributions ride
along as the v3 ``obs``/``ctx`` records that give downstream consumers
per-count confidence and context-sensitive estimates.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Sequence, Tuple, Union

from ..analysis.callgraph import CallGraph
from ..analysis.dominators import control_equivalent_classes
from ..frontend.driver import SourceList, compile_program
from ..interp.events import EventSink
from ..interp.interpreter import DEFAULT_ENGINE, DEFAULT_MAX_STEPS, run_program
from ..ir.instructions import CALL_INSTRS
from ..ir.program import Program
from ..profile.database import BlockKey, Context, ProfileDatabase
from ..profile.fingerprint import fingerprint_program

DEFAULT_SAMPLE_RATE = 100
DEFAULT_CONTEXT_DEPTH = 2
DEFAULT_JITTER = 0.2

InputVector = Sequence[Union[int, float]]
SiteKey = Tuple[str, int]


class SamplingSink(EventSink):
    """Samples the interpreter event stream every ~``rate`` steps.

    ``rate``
        Nominal events between samples (1 = sample every instruction).
    ``context_depth``
        How many enclosing callers each sample records (k).  0 disables
        context collection entirely.
    ``seed`` / ``jitter``
        The jitter PRNG seed and spread: each inter-sample gap is drawn
        uniformly from ``rate ± rate*jitter``.  The same seed replays
        the same sample points over the same execution.
    """

    # The sampler reads instructions, calls, and returns; it never looks
    # at branch or memory traffic, so the pre-decoded engine can skip
    # those callbacks entirely.  ``on_instr`` must stay exact and
    # in-order (the countdown defines *which* instruction each sample
    # lands on), so it keeps the base class's fetch tokens, which make
    # one on_instr per instruction, in order.
    needs_branch = False
    needs_mem = False

    def __init__(
        self,
        rate: int = DEFAULT_SAMPLE_RATE,
        context_depth: int = DEFAULT_CONTEXT_DEPTH,
        seed: int = 0,
        jitter: float = DEFAULT_JITTER,
    ) -> None:
        if rate < 1:
            raise ValueError("sample rate must be >= 1")
        if context_depth < 0:
            raise ValueError("context depth must be >= 0")
        self.rate = rate
        self.context_depth = context_depth
        self.seed = seed
        self.jitter = jitter
        self.events = 0
        self.samples = 0
        self.block_samples: Dict[BlockKey, int] = {}
        self.context_samples: Dict[BlockKey, Dict[Context, int]] = {}
        self.site_hits: Dict[SiteKey, int] = {}
        self._rng = random.Random(seed)
        self._spread = max(1, int(round(rate * jitter))) if rate > 1 else 0
        self._stack: list = []  # shadow call stack of caller names
        self._gap = self._next_gap()

    def _next_gap(self) -> int:
        if self._spread == 0:
            return self.rate
        return max(1, self.rate + self._rng.randint(-self._spread, self._spread))

    # -- EventSink callbacks -------------------------------------------

    def on_instr(self, proc, label, index, instr) -> None:
        self.events += 1
        if isinstance(instr, CALL_INSTRS):
            # Exact call-edge tally (the LBR analogue): not subject to
            # the sampling countdown — see the module docstring.
            site = (proc.module, instr.site_id)
            self.site_hits[site] = self.site_hits.get(site, 0) + 1
        self._gap -= 1
        if self._gap <= 0:
            self._gap = self._next_gap()
            self._take_sample(proc.name, label)

    def on_call(self, caller, callee_name, kind, n_args) -> None:
        # Builtins never produce a matching on_return (no frame is
        # pushed), so they must not grow the shadow stack.
        if kind != "builtin":
            self._stack.append(caller.name)

    def on_return(self, callee_name, caller) -> None:
        if self._stack:
            self._stack.pop()

    # -- Internals -----------------------------------------------------

    def _take_sample(self, proc_name: str, label: str) -> None:
        self.samples += 1
        key = (proc_name, label)
        self.block_samples[key] = self.block_samples.get(key, 0) + 1
        if self.context_depth:
            if self.context_depth == 1:
                context: Context = (
                    (self._stack[-1],) if self._stack else ()
                )
            else:
                context = tuple(self._stack[-self.context_depth:][::-1])
            per = self.context_samples.setdefault(key, {})
            per[context] = per.get(context, 0) + 1

    def reset_stack(self) -> None:
        """Forget the shadow stack (call between independent runs: a
        run that ends via ``exit()`` leaves frames un-returned)."""
        self._stack = []

    @property
    def effective_rate(self) -> float:
        """Measured events-per-sample (≈ the nominal rate)."""
        return self.events / self.samples if self.samples else 0.0


class SampledProfile:
    """Accumulated sampled runs, convertible to a profile database."""

    def __init__(
        self,
        rate: int = DEFAULT_SAMPLE_RATE,
        context_depth: int = DEFAULT_CONTEXT_DEPTH,
        seed: int = 0,
        jitter: float = DEFAULT_JITTER,
    ) -> None:
        self.rate = rate
        self.context_depth = context_depth
        self.seed = seed
        self.jitter = jitter
        self.runs = 0
        self.steps = 0
        self.events = 0
        self.samples = 0
        self.block_samples: Dict[BlockKey, int] = {}
        self.context_samples: Dict[BlockKey, Dict[Context, int]] = {}
        self.site_hits: Dict[SiteKey, int] = {}

    def make_sink(self) -> SamplingSink:
        """A fresh sink for one run; the seed advances per run so
        repeated identical runs do not sample identical points."""
        return SamplingSink(
            self.rate, self.context_depth, seed=self.seed + self.runs,
            jitter=self.jitter,
        )

    def absorb(self, sink: SamplingSink, steps: int = 0) -> None:
        """Fold one finished run's samples into the accumulator."""
        self.runs += 1
        self.steps += steps
        self.events += sink.events
        self.samples += sink.samples
        for key, n in sink.block_samples.items():
            self.block_samples[key] = self.block_samples.get(key, 0) + n
        for key, per in sink.context_samples.items():
            merged = self.context_samples.setdefault(key, {})
            for ctx, n in per.items():
                merged[ctx] = merged.get(ctx, 0) + n
        for site, n in sink.site_hits.items():
            self.site_hits[site] = self.site_hits.get(site, 0) + n

    @property
    def effective_rate(self) -> float:
        # With zero samples (a run far shorter than the rate) fall back
        # to the nominal rate so the database still records what was
        # asked for instead of a meaningless "rate 1/0".
        return self.events / self.samples if self.samples else float(self.rate)

    def to_database(self, program: Program) -> ProfileDatabase:
        """Scale the samples into count estimates against ``program``.

        ``program`` must be (a fresh compile of) the measured program:
        its call sites give the zero-count entries for sites never
        executed (the instrumented pipeline records those too, and the
        heuristic fallback in ``site_weight`` must not re-estimate a
        site the profiler *observed* to be cold), and its procedures
        are fingerprinted for the lifecycle layer's staleness
        detection.

        A sample lands on an *instruction*, so a block's sample tally
        is proportional to executions × block length; dividing by the
        block's instruction count removes the length bias and leaves an
        estimate of the execution count itself.  Before that, sample
        evidence is *pooled* across each control-equivalence class of
        the CFG (flow smoothing, as hardware-sample PGO pipelines do):
        blocks whose true counts are provably equal share one pooled
        estimate instead of two independent noisy draws, which keeps
        the inliner's entry-relative ratios at exactly 1.0 where exact
        instrumentation would measure 1.0.  Site counts are not
        estimates at all — they are the sink's exact call tallies.
        """
        scale = self.effective_rate
        sizes: Dict[BlockKey, int] = {
            (proc.name, label): max(1, len(block.instrs))
            for proc in program.all_procs()
            for label, block in proc.blocks.items()
        }
        db = ProfileDatabase()
        db.sampled = True
        db.sample_rate = scale
        db.context_depth = self.context_depth
        db.sampled_events = self.events
        db.sample_count = self.samples
        db.training_runs = self.runs
        db.training_steps = self.steps
        # Exact entry counts by flow conservation: a procedure's entry
        # block executes once per incoming call, and calls are tallied
        # exactly.  ``main`` additionally runs once per training run.
        graph = CallGraph(program)
        entry_exact: Dict[str, int] = {}
        for proc in program.all_procs():
            incoming = graph.callers_of(proc.name)
            if not incoming and proc.name != "main":
                continue
            entry_exact[proc.name] = sum(
                self.site_hits.get(site.key, 0) for site in incoming
            ) + (self.runs if proc.name == "main" else 0)
        smoothed: set = set()
        for proc in program.all_procs():
            entry_cls: Optional[int] = entry_exact.get(proc.name)
            for cls in control_equivalent_classes(proc):
                keys = [(proc.name, label) for label in cls]
                smoothed.update(keys)
                if proc.entry in cls and entry_cls is not None:
                    # The entry's whole class shares the exact count —
                    # including an exact 0 for observed-cold procedures,
                    # which the instrumented pipeline records too.
                    for k in keys:
                        db.block_counts[k] = entry_cls
                    continue
                pooled = sum(self.block_samples.get(k, 0) for k in keys)
                if pooled == 0:
                    continue
                pooled_size = sum(sizes[k] for k in keys)
                estimate = max(1, int(round(pooled * scale / pooled_size)))
                for k in keys:
                    db.block_counts[k] = estimate
        for key, n in self.block_samples.items():
            db.block_samples[key] = n
            if key not in smoothed:
                # A sampled block outside the compiled program's CFG
                # (stale key) falls back to the per-block estimate.
                size = sizes.get(key, 1)
                db.block_counts[key] = max(1, int(round(n * scale / size)))
        for key, per in self.context_samples.items():
            size = sizes.get(key, 1)
            db.context_counts[key] = {
                ctx: max(1, int(round(n * scale / size)))
                for ctx, n in per.items()
            }
        db.site_counts = dict(self.site_hits)
        for mod in program.modules.values():
            for proc in mod.procs.values():
                for block in proc.blocks.values():
                    for instr in block.instrs:
                        if isinstance(instr, CALL_INSTRS):
                            db.site_counts.setdefault((mod.name, instr.site_id), 0)
        db.fingerprints.update(fingerprint_program(program))
        return db


def sample_run(
    program: Program,
    inputs: InputVector = (),
    profile: Optional[SampledProfile] = None,
    entry: str = "main",
    max_steps: int = DEFAULT_MAX_STEPS,
    rate: int = DEFAULT_SAMPLE_RATE,
    context_depth: int = DEFAULT_CONTEXT_DEPTH,
    seed: int = 0,
    engine: str = DEFAULT_ENGINE,
) -> SampledProfile:
    """Execute ``program`` once under the sampler; returns the profile.

    Pass an existing ``profile`` to accumulate several runs (training
    sets); its rate/depth/seed settings then govern the run.
    """
    acc = profile if profile is not None else SampledProfile(
        rate, context_depth, seed
    )
    sink = acc.make_sink()
    result = run_program(
        program, inputs, entry=entry, sink=sink, max_steps=max_steps,
        engine=engine,
    )
    acc.absorb(sink, result.steps)
    return acc


def sample_train(
    sources: SourceList,
    training_inputs: Sequence[InputVector],
    rate: int = DEFAULT_SAMPLE_RATE,
    context_depth: int = DEFAULT_CONTEXT_DEPTH,
    seed: int = 0,
    entry: str = "main",
    max_steps: int = DEFAULT_MAX_STEPS,
    engine: str = DEFAULT_ENGINE,
) -> ProfileDatabase:
    """The sampled twin of :func:`repro.profile.pgo.train`.

    One compile (no instrumentation — the program is run as-is) and one
    sampled run per training vector, folded into a single database.
    No run mutates the program, so the database is derived from, and
    fingerprints, the very program it sampled.
    """
    acc = SampledProfile(rate, context_depth, seed)
    program = compile_program(sources)
    for inputs in training_inputs:
        sample_run(
            program, inputs, profile=acc, entry=entry, max_steps=max_steps,
            engine=engine,
        )
    return acc.to_database(program)
