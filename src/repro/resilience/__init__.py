"""Resilience: pass isolation, snapshot/rollback, fault injection.

The subsystem behind the degradation ladder (docs/resilience.md): a
failing pass rolls back instead of aborting the build, corrupted inputs
degrade scope/feedback instead of crashing the driver, and a seeded
fault injector proves every recovery path fires.
"""

from .errors import (
    FrameFormatError,
    InjectedFault,
    IsomError,
    ProfileConfidenceError,
    ProfileFormatError,
    ResilienceError,
    ShardFormatError,
    StrictModeError,
)
from .faults import CORRUPTION_MODES, SHARD_FAULTS, FaultInjector
from .guard import PROGRAM_SCOPE, PassGuard, bisect_failure
from .snapshot import ProcedureSnapshot, ProgramSnapshot

__all__ = [
    "CORRUPTION_MODES",
    "FaultInjector",
    "FrameFormatError",
    "InjectedFault",
    "IsomError",
    "PassGuard",
    "ProcedureSnapshot",
    "ProfileConfidenceError",
    "ProfileFormatError",
    "PROGRAM_SCOPE",
    "ProgramSnapshot",
    "ResilienceError",
    "SHARD_FAULTS",
    "ShardFormatError",
    "StrictModeError",
    "bisect_failure",
]
