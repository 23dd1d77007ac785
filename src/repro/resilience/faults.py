"""Deterministic fault injection for the resilience test matrix.

Every recovery path in the degradation ladder must be *provably* live —
a fallback that is never exercised is a fallback that has silently
rotted.  The injector manufactures the four failure classes the ladder
handles, all driven by one seeded :class:`random.Random` so a failing
test reproduces from its seed:

- a pass that raises (:func:`FaultInjector.failing_pass`);
- a pass that mutates IR into something the verifier rejects
  (:func:`FaultInjector.corrupting_pass`);
- truncated / garbled isom text (:func:`FaultInjector.corrupt_text`);
- garbled profile-database lines (same entry point), including the
  profiledb **v3** record kinds (``sampling``/``obs``/``ctx``/``fp``)
  whose ``v3-*`` modes re-frame the header checksum so the malformed
  record reaches the record parser rather than the CRC gate.

Wired into :class:`~repro.linker.toolchain.Toolchain` via its
``fault_injector`` hook, which calls :meth:`corrupt_isom` /
:meth:`corrupt_profile` at the exact points real corruption would
enter: between serialization and parse.
"""

from __future__ import annotations

import random
import zlib
from typing import List, Optional, Sequence

from ..ir.instructions import Jump
from ..ir.procedure import Procedure
from ..ir.program import Program
from .errors import InjectedFault

CORRUPTION_MODES = (
    "truncate", "garble", "bitflip-checksum", "version-skew",
    "v3-sampling", "v3-obs", "v3-ctx", "v3-fp",
)

# The v3-* corruption modes target one record kind each.  When the
# database carries no such record (an exact profile, say) the injector
# appends a malformed record of that kind instead — the fault must
# actually fire, every time, from any seed.
_V3_RECORD_MODES = {
    "v3-sampling": "sampling",
    "v3-obs": "obs",
    "v3-ctx": "ctx",
    "v3-fp": "fp",
}
_MALFORMED_RECORDS = {
    "sampling": "sampling rate 1.0 depth",  # arity: keywords cut short
    "obs": "obs __injected entry not-a-count",  # integer parse fails
    "ctx": "ctx __injected entry",  # context column missing
    "fp": "fp __injected",  # digest missing
}


class FaultInjector:
    """Seeded source of deterministic faults.

    ``crash_pass`` / ``corrupt_pass`` name a scalar pass to sabotage
    (see :meth:`wrap_pipeline`); ``isom_modules`` lists module names
    whose isom text to corrupt; ``corrupt_profile_db`` garbles the
    profile database text.  ``mode`` picks the text-corruption flavour.
    """

    def __init__(
        self,
        seed: int = 0,
        crash_pass: Optional[str] = None,
        corrupt_pass: Optional[str] = None,
        isom_modules: Sequence[str] = (),
        corrupt_profile_db: bool = False,
        mode: str = "truncate",
    ):
        if mode not in CORRUPTION_MODES:
            raise ValueError(
                "unknown corruption mode {!r}; expected one of {}".format(
                    mode, CORRUPTION_MODES
                )
            )
        self.seed = seed
        self.rng = random.Random(seed)
        self.crash_pass = crash_pass
        self.corrupt_pass = corrupt_pass
        self.isom_modules = tuple(isom_modules)
        self.corrupt_profile_db = corrupt_profile_db
        self.mode = mode
        self.injected: List[str] = []  # log of every fault actually fired

    # ------------------------------------------------------------------
    # Pass-level faults
    # ------------------------------------------------------------------

    def failing_pass(self, name: str = "injected-crash"):
        """A scalar pass that always raises :class:`InjectedFault`."""

        def run(program: Program, proc: Procedure) -> bool:
            self.injected.append("crash:{}:{}".format(name, proc.name))
            raise InjectedFault(
                "injected crash in pass {!r} on @{} (seed {})".format(
                    name, proc.name, self.seed
                )
            )

        return run

    def corrupting_pass(self, name: str = "injected-corrupt"):
        """A scalar pass that breaks the IR instead of raising.

        Appends a jump to a label that does not exist, which the
        verifier rejects — modelling a pass whose output is wrong
        rather than one that crashes.
        """

        def run(program: Program, proc: Procedure) -> bool:
            blocks = [b for b in proc.blocks.values() if b.terminator is not None]
            if not blocks:
                return False
            block = blocks[self.rng.randrange(len(blocks))]
            bogus = "__injected_missing_{}".format(self.rng.randrange(1 << 16))
            block.instrs[-1] = Jump(bogus)
            proc.drop_cfg_facts()
            self.injected.append("corrupt:{}:{}".format(name, proc.name))
            return True

        return run

    def wrap_pipeline(self, pipeline):
        """Sabotage the configured pass of a ``(name, fn)`` pipeline.

        The named pass keeps its position so bisection and quarantine
        report the pass a user would recognize.
        """
        wrapped = []
        for name, run in pipeline:
            if name == self.crash_pass:
                wrapped.append((name, self.failing_pass(name)))
            elif name == self.corrupt_pass:
                wrapped.append((name, self.corrupting_pass(name)))
            else:
                wrapped.append((name, run))
        return wrapped

    # ------------------------------------------------------------------
    # Text-level faults
    # ------------------------------------------------------------------

    def corrupt_text(self, text: str) -> str:
        """Damage serialized text per ``mode``, deterministically."""
        if self.mode in _V3_RECORD_MODES:
            return self._corrupt_v3_record(text)
        if self.mode == "truncate":
            # Cut mid-line somewhere in the back half of the payload.
            cut = self.rng.randrange(len(text) // 2, max(len(text) - 1, 1))
            return text[:cut]
        if self.mode == "garble":
            lines = text.splitlines()
            # Only lines with something to garble are candidates — the
            # fault must actually fire, every time, from any seed.
            victims = [
                i for i in range(1, len(lines))
                if any(ch.isalnum() for ch in lines[i])
            ]
            if victims:
                victim = self.rng.choice(victims)
                lines[victim] = "".join(
                    self.rng.choice("#!?~") if ch.isalnum() else ch
                    for ch in lines[victim]
                )
            return "\n".join(lines) + "\n"
        if self.mode == "bitflip-checksum":
            # Flip one hex digit of the header checksum, leaving the
            # payload intact: pure checksum-mismatch corruption.
            head, _, rest = text.partition("\n")
            fields = head.split()
            if fields and all(c in "0123456789abcdef" for c in fields[-1]):
                digits = list(fields[-1])
                pos = self.rng.randrange(len(digits))
                digits[pos] = "0" if digits[pos] != "0" else "f"
                fields[-1] = "".join(digits)
            return " ".join(fields) + "\n" + rest
        # version-skew: claim a far-future format version.
        head, _, rest = text.partition("\n")
        fields = head.split()
        if len(fields) >= 2:
            fields[1] = "999"
        return " ".join(fields) + "\n" + rest

    def _corrupt_v3_record(self, text: str) -> str:
        """Malform one v3 record, then re-frame the header checksum.

        Naive garbling dies at the CRC gate before any record is read;
        these modes model a *writer* bug (or a bit flip that slipped
        past an end-to-end checksum): the damaged payload is re-framed
        with a freshly computed CRC so the malformed record reaches the
        v3 record parser itself.
        """
        kind = _V3_RECORD_MODES[self.mode]
        head, _, payload = text.partition("\n")
        lines = [line for line in payload.splitlines()]
        victims = [
            i for i, line in enumerate(lines)
            if line.split() and line.split()[0] == kind
        ]
        if victims:
            victim = self.rng.choice(victims)
            lines[victim] = self._malform_record(lines[victim], kind)
        else:
            lines.append(_MALFORMED_RECORDS[kind])
        body = "\n".join(lines) + "\n"
        return self._reframe(head, body)

    def _malform_record(self, line: str, kind: str) -> str:
        fields = line.split()
        if kind == "obs":
            fields[-1] = "not-a-count"  # integer parse must fail
            return " ".join(fields)
        if kind == "ctx":
            return " ".join(fields[:3])  # context column gone
        if kind == "fp":
            return fields[0]  # bare keyword, digest gone
        return " ".join(fields[:5])  # sampling: events/samples pair gone

    @staticmethod
    def _reframe(header: str, payload: str) -> str:
        """Rebuild a ``profiledb N crc32 X`` header over a new payload."""
        fields = header.split()
        checksum = format(zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF, "08x")
        version = fields[1] if len(fields) > 1 else "3"
        return "profiledb {} crc32 {}\n{}".format(version, checksum, payload)

    def corrupt_isom(self, text: str, module_name: str) -> str:
        if module_name not in self.isom_modules:
            return text
        self.injected.append("isom:{}:{}".format(self.mode, module_name))
        return self.corrupt_text(text)

    def corrupt_profile(self, text: str) -> str:
        if not self.corrupt_profile_db:
            return text
        self.injected.append("profile:{}".format(self.mode))
        return self.corrupt_text(text)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<FaultInjector seed={} mode={} fired={}>".format(
            self.seed, self.mode, len(self.injected)
        )
