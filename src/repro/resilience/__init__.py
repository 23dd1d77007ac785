"""Resilience: pass isolation, snapshot/rollback, fault injection.

The subsystem behind the degradation ladder (docs/resilience.md): a
failing pass rolls back instead of aborting the build, corrupted inputs
degrade scope/feedback instead of crashing the driver, and a seeded
fault injector proves every recovery path fires.
"""

from .errors import (
    InjectedFault,
    IsomError,
    ProfileConfidenceError,
    ProfileFormatError,
    ResilienceError,
    StrictModeError,
)
from .faults import CORRUPTION_MODES, FaultInjector
from .guard import PROGRAM_SCOPE, PassGuard, bisect_failure
from .snapshot import ProcedureSnapshot, ProgramSnapshot

__all__ = [
    "CORRUPTION_MODES",
    "FaultInjector",
    "InjectedFault",
    "IsomError",
    "PassGuard",
    "ProcedureSnapshot",
    "ProfileConfidenceError",
    "ProfileFormatError",
    "PROGRAM_SCOPE",
    "ProgramSnapshot",
    "ResilienceError",
    "StrictModeError",
    "bisect_failure",
]
