"""The profile database: block and call-site execution counts.

Keys are stable across recompiles because the front end is
deterministic: block counts key on ``(procedure name, block label)``
and call-site counts on ``(module name, site id)``.  Call-site counts
are derived from block counts — a call executes exactly as often as
its containing block — which mirrors how arc profiles are recovered
from basic-block profiles in practice.

The database serializes to a small text format so the isom workflow can
keep profiles on disk between the training and final compiles.  The
on-disk format is versioned and checksummed.  Format **v3** (the
second-generation, sampled/context database) adds four record kinds on
top of v2's ``runs``/``block``/``site``::

    profiledb 3 crc32 5d41402a
    runs 1 steps 8842
    sampling rate 100.0 depth 2 events 8842 samples 88
    fp main 3f2a1b9c0d4e
    block main entry 1
    obs main loop 12
    ctx work loop 1200 wrap,main
    site app 0 12

- ``sampling`` carries the collection metadata of a sampled run (the
  effective sampling rate, the calling-context depth *k*, and how many
  events/samples the run saw);
- ``fp`` records one per-procedure source fingerprint, the staleness
  anchor the lifecycle layer (:mod:`repro.sampling.lifecycle`) compares
  against a fresh compile;
- ``obs`` is the *raw observation count* behind a sampled block count —
  the per-count confidence is derived from it (many samples = tight
  estimate, few = noise);
- ``ctx`` is a context-attributed block count: the same block key plus
  the k-deep calling context (nearest caller first, ``-`` for an empty
  context).  Context records are what sharpen the cloner's benefit
  estimates (docs/profiling.md).

A database with none of that extra data still writes the plain v2 form,
byte-identical to what previous releases produced.

"From Profiling to Optimization" calls stale and corrupted profiles the
dominant failure mode of deployed PGO, so ``from_text``/``load`` treat
their input as hostile: truncation, corruption, version skew, malformed
integers, and short lines all raise a typed
:class:`~repro.resilience.ProfileFormatError` carrying the offending
line number — the signal the driver uses to fall back to static
frequency estimation instead of crashing.  Version-1 databases (no
checksum) and version-2 databases (no sampling records) are still read.
"""

from __future__ import annotations

import math
import zlib
from typing import Dict, List, Optional, Tuple

from ..ir.instructions import CALL_INSTRS
from ..ir.program import Program
from ..resilience.errors import ProfileFormatError
from .fingerprint import fingerprint_program

PROFILEDB_VERSION = 3
PROFILEDB_PLAIN_VERSION = 2  # written when no sampling/context/fp data

BlockKey = Tuple[str, str]  # (proc name, block label)
SiteKey = Tuple[str, int]  # (module name, site id)
Context = Tuple[str, ...]  # calling context, nearest caller first

EMPTY_CONTEXT_TOKEN = "-"


def format_context(context: Context) -> str:
    return ",".join(context) if context else EMPTY_CONTEXT_TOKEN


def parse_context(text: str) -> Context:
    if text == EMPTY_CONTEXT_TOKEN:
        return ()
    return tuple(text.split(","))


class ProfileDatabase:
    """Counts harvested from one or more training runs.

    Exact (instrumented) runs populate ``block_counts``/``site_counts``
    with true counts and per-procedure ``fingerprints``.  Sampled runs
    (:mod:`repro.sampling`) additionally populate ``block_samples``
    (raw observation counts, the confidence evidence) and
    ``context_counts`` (k-deep calling-context attribution), and set
    the ``sampled`` collection metadata.
    """

    def __init__(self) -> None:
        self.block_counts: Dict[BlockKey, int] = {}
        self.site_counts: Dict[SiteKey, int] = {}
        self.training_runs = 0
        self.training_steps = 0
        # Sampling metadata (zero / empty on exact databases).
        self.sampled = False
        self.sample_rate = 0.0  # effective events-per-sample of collection
        self.context_depth = 0  # k of the calling-context records
        self.sampled_events = 0
        self.sample_count = 0
        # Raw observation count per block (sampled databases only).
        self.block_samples: Dict[BlockKey, int] = {}
        # Context-attributed block counts: key -> {context: count}.
        self.context_counts: Dict[BlockKey, Dict[Context, int]] = {}
        # Per-procedure source fingerprints at training time.
        self.fingerprints: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_training_run(
        cls,
        program: Program,
        probe_map: "Dict[int, Tuple[str, str]]",
        probe_counts: Dict[int, int],
        steps: int = 0,
    ) -> "ProfileDatabase":
        db = cls()
        db.merge_run(program, probe_map, probe_counts, steps)
        return db

    def merge_run(
        self,
        program: Program,
        probe_map: "Dict[int, Tuple[str, str]]",
        probe_counts: Dict[int, int],
        steps: int = 0,
        printed: Optional[Dict[str, str]] = None,
    ) -> None:
        """Fold one training run's probe counters into the database.

        Multiple runs accumulate, supporting the paper's future-work
        idea of "incorporating profile information from a variety of
        sources".  ``printed`` is an optional memo of procedure texts
        (:func:`~repro.ir.printer.print_proc_once`) for the
        fingerprints: runs of one program share it, so each procedure
        is printed once, not once per run.
        """
        for counter_id, (proc, label) in probe_map.items():
            count = probe_counts.get(counter_id, 0)
            key = (proc, label)
            self.block_counts[key] = self.block_counts.get(key, 0) + count
        self._derive_site_counts(program)
        self.fingerprints.update(fingerprint_program(program, printed))
        self.training_runs += 1
        self.training_steps += steps

    def _derive_site_counts(self, program: Program) -> None:
        self.site_counts = {}
        for mod in program.modules.values():
            for proc in mod.procs.values():
                for label, block in proc.blocks.items():
                    count = self.block_counts.get((proc.name, label))
                    if count is None:
                        continue
                    for instr in block.instrs:
                        if isinstance(instr, CALL_INSTRS):
                            key = (mod.name, instr.site_id)
                            self.site_counts[key] = (
                                self.site_counts.get(key, 0) + count
                            )

    # ------------------------------------------------------------------
    # Combination (Section 5: "incorporating profile information from a
    # variety of sources")
    # ------------------------------------------------------------------

    def scaled(self, factor: float) -> "ProfileDatabase":
        """A copy with every count scaled by ``factor`` (>= 0).

        Scaling lets differently sized training runs contribute equal
        (or deliberately unequal) influence when combined.  Raw sample
        observations (``block_samples``/``sample_count``/events) are
        *evidence*, not estimates: a down-weighted run's evidence counts
        for proportionally less confidence in the merge, but an
        up-scaled run cannot manufacture observations it never made, so
        their factor is capped at 1.0.
        """
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        evidence = min(1.0, factor)
        out = ProfileDatabase()
        out.block_counts = {
            k: int(round(v * factor)) for k, v in self.block_counts.items()
        }
        out.site_counts = {
            k: int(round(v * factor)) for k, v in self.site_counts.items()
        }
        out.training_runs = self.training_runs
        out.training_steps = int(round(self.training_steps * factor))
        out.sampled = self.sampled
        out.sample_rate = self.sample_rate
        out.context_depth = self.context_depth
        out.sampled_events = int(round(self.sampled_events * evidence))
        out.sample_count = int(round(self.sample_count * evidence))
        out.block_samples = {
            k: int(round(v * evidence)) for k, v in self.block_samples.items()
        }
        out.context_counts = {
            key: {
                ctx: int(round(count * factor)) for ctx, count in per.items()
            }
            for key, per in self.context_counts.items()
        }
        out.fingerprints = dict(self.fingerprints)
        return out

    @classmethod
    def combine(
        cls,
        databases: "list[ProfileDatabase]",
        weights: Optional["list[float]"] = None,
    ) -> "ProfileDatabase":
        """Merge profiles from several sources, optionally weighted.

        With no weights, counts add directly (larger runs dominate).
        With weights, each database is normalized by its total steps
        first, so a short synthetic run and a long production trace can
        contribute in the stated proportion.
        """
        if not databases:
            return cls()
        if weights is not None:
            if len(weights) != len(databases):
                raise ValueError("one weight per database required")
            scaled = []
            for db, weight in zip(databases, weights):
                norm = weight / db.training_steps if db.training_steps else 0.0
                # Keep counts in a useful integer range after normalizing.
                scaled.append(db.scaled(norm * 1_000_000))
            databases = scaled
        out = cls()
        for db in databases:
            for key, count in db.block_counts.items():
                out.block_counts[key] = out.block_counts.get(key, 0) + count
            for key, count in db.site_counts.items():
                out.site_counts[key] = out.site_counts.get(key, 0) + count
            for key, count in db.block_samples.items():
                out.block_samples[key] = out.block_samples.get(key, 0) + count
            for key, per in db.context_counts.items():
                merged = out.context_counts.setdefault(key, {})
                for ctx, count in per.items():
                    merged[ctx] = merged.get(ctx, 0) + count
            # Later databases win fingerprint conflicts: when sources
            # changed between runs, the newest run's shape is the one a
            # fresh compile should be compared against.
            out.fingerprints.update(db.fingerprints)
            out.training_runs += db.training_runs
            out.training_steps += db.training_steps
            out.sampled = out.sampled or db.sampled
            out.context_depth = max(out.context_depth, db.context_depth)
            out.sampled_events += db.sampled_events
            out.sample_count += db.sample_count
        if out.sampled:
            out.sample_rate = (
                out.sampled_events / out.sample_count if out.sample_count else 0.0
            )
        return out

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def block_count(self, proc: str, label: str) -> Optional[int]:
        return self.block_counts.get((proc, label))

    def site_count(self, module: str, site_id: int) -> Optional[int]:
        return self.site_counts.get((module, site_id))

    def is_empty(self) -> bool:
        return not self.block_counts

    @property
    def has_contexts(self) -> bool:
        return bool(self.context_counts)

    def context_view(self) -> Optional[Dict[BlockKey, Dict[Context, int]]]:
        """The context-attributed counts, or ``None`` when absent.

        This is what the HLO driver hands to the cloner
        (``run_hlo(..., context_counts=...)``).
        """
        return self.context_counts if self.context_counts else None

    # ------------------------------------------------------------------
    # Confidence (sampled databases)
    # ------------------------------------------------------------------

    def block_confidence(self, proc: str, label: str) -> float:
        """Confidence in one block count, in [0, 1].

        Exact databases are fully confident.  For sampled counts the
        confidence grows with the raw observation count *n* as
        ``1 - 1/sqrt(n)`` — the relative standard error of a sampled
        count estimate shrinks with the square root of the evidence.
        """
        if not self.sampled:
            return 1.0 if (proc, label) in self.block_counts else 0.0
        n = self.block_samples.get((proc, label), 0)
        if n <= 0:
            return 0.0
        return max(0.0, 1.0 - 1.0 / math.sqrt(n))

    def overall_confidence(self) -> float:
        """Evidence-weighted mean confidence across recorded blocks.

        Weighted by observation count, so the hot blocks that actually
        drive inline/clone decisions dominate the figure.  Exact
        databases report 1.0; an empty database reports 0.0.
        """
        if not self.sampled:
            return 1.0 if self.block_counts else 0.0
        total = sum(self.block_samples.values())
        if total <= 0:
            return 0.0
        weighted = sum(
            n * (1.0 - 1.0 / math.sqrt(n)) for n in self.block_samples.values() if n > 0
        )
        return weighted / total

    def coverage(self, program: Program) -> float:
        """Fraction of the program's blocks that carry a recorded count."""
        total = 0
        covered = 0
        for proc in program.all_procs():
            for label in proc.blocks:
                total += 1
                if (proc.name, label) in self.block_counts:
                    covered += 1
        return covered / total if total else 0.0

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def _has_v3_data(self) -> bool:
        return bool(
            self.sampled
            or self.block_samples
            or self.context_counts
            or self.fingerprints
        )

    def to_text(self) -> str:
        lines = ["runs {} steps {}".format(self.training_runs, self.training_steps)]
        version = PROFILEDB_PLAIN_VERSION
        if self._has_v3_data():
            version = PROFILEDB_VERSION
            if self.sampled:
                lines.append(
                    "sampling rate {} depth {} events {} samples {}".format(
                        round(self.sample_rate, 4),
                        self.context_depth,
                        self.sampled_events,
                        self.sample_count,
                    )
                )
            for proc, digest in sorted(self.fingerprints.items()):
                lines.append("fp {} {}".format(proc, digest))
        for (proc, label), count in sorted(self.block_counts.items()):
            lines.append("block {} {} {}".format(proc, label, count))
        if version == PROFILEDB_VERSION:
            for (proc, label), n in sorted(self.block_samples.items()):
                lines.append("obs {} {} {}".format(proc, label, n))
            for (proc, label), per in sorted(self.context_counts.items()):
                for ctx, count in sorted(per.items()):
                    lines.append(
                        "ctx {} {} {} {}".format(
                            proc, label, count, format_context(ctx)
                        )
                    )
        for (module, site), count in sorted(self.site_counts.items()):
            lines.append("site {} {} {}".format(module, site, count))
        payload = "\n".join(lines) + "\n"
        checksum = format(zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF, "08x")
        return "profiledb {} crc32 {}\n{}".format(version, checksum, payload)

    @classmethod
    def from_text(cls, text: str) -> "ProfileDatabase":
        header, _, payload = text.lstrip("\n").partition("\n")
        if not header.startswith("profiledb"):
            raise ProfileFormatError("not a profile database", "not-profile")
        fields = header.split()
        try:
            version = int(fields[1]) if len(fields) > 1 else 0
        except ValueError:
            raise ProfileFormatError(
                "malformed version field", "malformed", 1, header
            ) from None
        if version in (PROFILEDB_PLAIN_VERSION, PROFILEDB_VERSION):
            if len(fields) != 4 or fields[2] != "crc32":
                raise ProfileFormatError(
                    "malformed profiledb header", "malformed", 1, header
                )
            computed = format(
                zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF, "08x"
            )
            if computed != fields[3]:
                raise ProfileFormatError(
                    "checksum mismatch (stated {}, computed {}): "
                    "database is truncated or corrupted".format(fields[3], computed),
                    "corrupted",
                )
        elif version != 1:  # version 1 predates the checksum; still read it
            raise ProfileFormatError(
                "version skew: file is v{}, toolchain reads v{}".format(
                    version, PROFILEDB_VERSION
                ),
                "version-skew",
                1,
                header,
            )

        db = cls()
        for lineno, line in enumerate(payload.splitlines(), 2):
            if not line.strip():
                continue
            parts = line.split()
            kind = parts[0]
            try:
                if kind == "runs":
                    if len(parts) != 4 or parts[2] != "steps":
                        raise ProfileFormatError(
                            "expected 'runs <n> steps <n>'", "malformed", lineno, line
                        )
                    db.training_runs = int(parts[1])
                    db.training_steps = int(parts[3])
                elif kind == "block":
                    if len(parts) != 4:
                        raise ProfileFormatError(
                            "block line needs 'block <proc> <label> <count>'",
                            "malformed", lineno, line,
                        )
                    db.block_counts[(parts[1], parts[2])] = int(parts[3])
                elif kind == "site":
                    if len(parts) != 4:
                        raise ProfileFormatError(
                            "site line needs 'site <module> <id> <count>'",
                            "malformed", lineno, line,
                        )
                    db.site_counts[(parts[1], int(parts[2]))] = int(parts[3])
                elif kind == "sampling":
                    if (
                        len(parts) != 9
                        or parts[1] != "rate"
                        or parts[3] != "depth"
                        or parts[5] != "events"
                        or parts[7] != "samples"
                    ):
                        raise ProfileFormatError(
                            "sampling line needs 'sampling rate <r> depth <k> "
                            "events <n> samples <n>'",
                            "malformed", lineno, line,
                        )
                    db.sampled = True
                    db.sample_rate = float(parts[2])
                    db.context_depth = int(parts[4])
                    db.sampled_events = int(parts[6])
                    db.sample_count = int(parts[8])
                elif kind == "obs":
                    if len(parts) != 4:
                        raise ProfileFormatError(
                            "obs line needs 'obs <proc> <label> <samples>'",
                            "malformed", lineno, line,
                        )
                    db.block_samples[(parts[1], parts[2])] = int(parts[3])
                elif kind == "ctx":
                    if len(parts) != 5:
                        raise ProfileFormatError(
                            "ctx line needs 'ctx <proc> <label> <count> <path>'",
                            "malformed", lineno, line,
                        )
                    key = (parts[1], parts[2])
                    per = db.context_counts.setdefault(key, {})
                    per[parse_context(parts[4])] = int(parts[3])
                elif kind == "fp":
                    if len(parts) != 3:
                        raise ProfileFormatError(
                            "fp line needs 'fp <proc> <digest>'",
                            "malformed", lineno, line,
                        )
                    db.fingerprints[parts[1]] = parts[2]
                else:
                    raise ProfileFormatError(
                        "unknown record kind {!r}".format(kind), "malformed",
                        lineno, line,
                    )
            except ValueError as exc:
                if isinstance(exc, ProfileFormatError):
                    raise
                raise ProfileFormatError(
                    "malformed integer field: {}".format(exc), "malformed",
                    lineno, line,
                ) from None
        return db

    # ------------------------------------------------------------------
    # Staleness (degradation ladder input)
    # ------------------------------------------------------------------

    def match_ratio(self, program: Program) -> float:
        """Fraction of recorded block keys that resolve in ``program``.

        The front end is deterministic, so a profile trained from the
        same sources matches ~1.0; a profile from different or heavily
        edited sources matches near 0.0.  The driver treats a
        low ratio as *stale* and degrades to static estimation.

        This is the whole-database scalar, kept for backward
        compatibility; :meth:`proc_match_ratios` reports the same
        signal per procedure, which is what ``repro profile check``
        surfaces (a single edited routine should not condemn the whole
        database).
        """
        if not self.block_counts:
            return 0.0
        live = {
            (proc.name, label)
            for proc in program.all_procs()
            for label in proc.blocks
        }
        hits = sum(1 for key in self.block_counts if key in live)
        return hits / len(self.block_counts)

    def proc_match_ratios(self, program: Program) -> Dict[str, float]:
        """Per-procedure fraction of recorded block keys that resolve.

        A procedure recorded in the database but absent from the
        program reports 0.0; an untouched procedure reports 1.0.
        """
        recorded: Dict[str, List[str]] = {}
        for proc, label in self.block_counts:
            recorded.setdefault(proc, []).append(label)
        ratios: Dict[str, float] = {}
        for name, labels in recorded.items():
            proc = program.proc(name)
            if proc is None:
                ratios[name] = 0.0
                continue
            hits = sum(1 for label in labels if label in proc.blocks)
            ratios[name] = hits / len(labels)
        return ratios

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_text())

    @classmethod
    def load(cls, path: str) -> "ProfileDatabase":
        with open(path) as handle:
            return cls.from_text(handle.read())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<ProfileDatabase {} blocks, {} sites, {} runs{}>".format(
            len(self.block_counts),
            len(self.site_counts),
            self.training_runs,
            ", sampled" if self.sampled else "",
        )
