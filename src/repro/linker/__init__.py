"""Isom serialization, link step, and the scope-aware compiler driver."""

from ..resilience.errors import IsomError
from .isom import (
    ISOM_EXTENSION,
    ISOM_VERSION,
    from_isom_text,
    is_isom_text,
    read_isom,
    read_isoms,
    roundtrip_modules,
    to_isom_text,
    write_isom,
)
from .linker import LinkError, link_modules
from .toolchain import (
    SCOPES,
    BuildResult,
    BuildStats,
    Toolchain,
    scope_flags,
)

__all__ = [
    "BuildResult",
    "BuildStats",
    "ISOM_EXTENSION",
    "ISOM_VERSION",
    "IsomError",
    "LinkError",
    "SCOPES",
    "Toolchain",
    "from_isom_text",
    "is_isom_text",
    "link_modules",
    "read_isom",
    "read_isoms",
    "roundtrip_modules",
    "scope_flags",
    "to_isom_text",
    "write_isom",
]
