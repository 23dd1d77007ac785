"""Isom files: object files that still contain intermediate code.

Section 2.1: "An alternative compile path allows the ucode to be stored
into special object files known as isoms.  These files remain
unoptimized until link time.  When the linker is invoked and discovers
isoms, it passes them en masse to HLO..."  Our isoms are the textual IR
serialization; this module writes, reads, and sniffs them.

On-disk isoms carry a one-line versioned header with a CRC-32 of the
payload::

    isom 1 crc32 9f3a01c2
    module "lib"
    ...

``from_isom_text``/``read_isom`` verify the header and raise a typed
:class:`~repro.resilience.IsomError` on truncation, corruption, or
version skew — the signal :class:`~repro.linker.toolchain.Toolchain`
uses to degrade that module to module-at-a-time compilation instead of
aborting the build.  Headerless payloads (the pre-versioning format)
are still accepted.
"""

from __future__ import annotations

import os
import zlib
from typing import Dict, Iterable, List, Optional

from ..ir.module import Module
from ..ir.parser import ParseError, parse_module
from ..ir.printer import print_module
from ..resilience.errors import IsomError

ISOM_EXTENSION = ".isom"
ISOM_VERSION = 1
_MAGIC = "module "
_HEADER_MAGIC = "isom"


def _checksum(payload: str) -> str:
    # ``surrogatepass``: a lone surrogate (text that came from no valid
    # UTF-8) gets a checksum like any other text instead of raising.
    data = payload.encode("utf-8", "surrogatepass")
    return format(zlib.crc32(data) & 0xFFFFFFFF, "08x")


def to_isom_text(module: Module, printed: Optional[Dict[str, str]] = None) -> str:
    """Serialize one module to isom text (versioned, checksummed).

    ``printed`` is an optional memo of procedure texts
    (:func:`~repro.ir.printer.print_proc_once`).
    """
    payload = print_module(module, printed)
    return "{} {} crc32 {}\n{}".format(
        _HEADER_MAGIC, ISOM_VERSION, _checksum(payload), payload
    )


def from_isom_text(text: str, path: str = "") -> Module:
    """Reconstruct a module from isom text, verifying the header.

    Raises :class:`IsomError` (kinds ``not-isom``, ``version-skew``,
    ``truncated``/``corrupted``, ``malformed``) instead of leaking bare
    parser crashes.  Headerless legacy text is parsed directly.
    """
    stripped = text.lstrip("\n")
    if stripped.startswith(_HEADER_MAGIC + " "):
        header, _, payload = stripped.partition("\n")
        fields = header.split()
        if len(fields) != 4 or fields[2] != "crc32":
            raise IsomError(
                "malformed isom header: {!r}".format(header), "malformed", path
            )
        try:
            version = int(fields[1])
        except ValueError:
            raise IsomError(
                "malformed isom version: {!r}".format(fields[1]), "malformed", path
            ) from None
        if version != ISOM_VERSION:
            raise IsomError(
                "isom version skew: file is v{}, toolchain reads v{}".format(
                    version, ISOM_VERSION
                ),
                "version-skew",
                path,
            )
        if _checksum(payload) != fields[3]:
            raise IsomError(
                "isom checksum mismatch (stated {}, computed {}): "
                "file is truncated or corrupted".format(fields[3], _checksum(payload)),
                "corrupted",
                path,
            )
    elif stripped.startswith(_MAGIC):
        payload = stripped  # legacy headerless isom
    else:
        raise IsomError("not an isom (no isom/module header)", "not-isom", path)
    try:
        return parse_module(payload)
    except ParseError as exc:
        raise IsomError(
            "unparseable isom payload: {}".format(exc), "malformed", path
        ) from exc


def is_isom_text(text: str) -> bool:
    """Cheap sniff used by the linker to spot isoms among objects."""
    for line in text.splitlines():
        if line.strip():
            return line.startswith(_MAGIC) or line.startswith(_HEADER_MAGIC + " ")
    return False


def write_isom(module: Module, directory: str) -> str:
    """Write ``module`` to ``<directory>/<name>.isom``; returns the path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, module.name + ISOM_EXTENSION)
    with open(path, "w") as handle:
        handle.write(to_isom_text(module))
    return path


def read_isom(path: str) -> Module:
    with open(path) as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise IsomError(
                "isom is not text: {}".format(exc), "corrupted", path
            ) from exc
    return from_isom_text(text, path=path)


def read_isoms(paths: Iterable[str]) -> List[Module]:
    return [read_isom(path) for path in paths]


def roundtrip_modules(modules: Iterable[Module]) -> List[Module]:
    """Serialize and re-parse modules (the in-memory isom path).

    The cross-module build pipeline routes every module through isom
    text even when nothing touches disk; this keeps the on-disk and
    in-memory paths byte-identical and continuously exercises the
    printer/parser round-trip.
    """
    return [from_isom_text(to_isom_text(m)) for m in modules]
