"""Typed errors for the resilience subsystem.

The degradation ladder (docs/resilience.md) needs to tell *recoverable*
input problems apart from compiler bugs: a corrupted isom or profile is
an input-quality issue the driver can route around (module-at-a-time
compilation, static frequency estimates), while an exception escaping a
pass is a bug whose blast radius the guarded pass manager contains.

``IsomError`` and ``ProfileFormatError`` subclass :class:`ValueError`
so call sites that predate the typed hierarchy (and tests written
against them) keep working.
"""

from __future__ import annotations


class ResilienceError(Exception):
    """Base class for every error the resilience layer raises."""


class IsomError(ResilienceError, ValueError):
    """An isom file is truncated, corrupted, version-skewed, or unparseable.

    ``kind`` classifies the failure for degradation decisions and build
    reports: ``"truncated"``, ``"corrupted"``, ``"version-skew"``,
    ``"malformed"``, or ``"not-isom"``.
    """

    def __init__(self, message: str, kind: str = "malformed", path: str = ""):
        self.kind = kind
        self.path = path
        if path:
            message = "{}: {}".format(path, message)
        super().__init__(message)


class ProfileFormatError(ResilienceError, ValueError):
    """A profile database is truncated, corrupted, or version-skewed.

    Carries the 1-based ``lineno`` and offending ``line`` text when the
    failure is localized to one input line.
    """

    def __init__(
        self, message: str, kind: str = "malformed", lineno: int = 0, line: str = ""
    ):
        self.kind = kind
        self.lineno = lineno
        self.line = line
        if lineno:
            message = "line {}: {} ({!r})".format(lineno, message, line)
        super().__init__(message)


class ProfileConfidenceError(ResilienceError, ValueError):
    """A sampled profile's statistical evidence is too thin to trust.

    Raised by :func:`repro.sampling.require_confident` (and by the
    driver under ``--strict``) when a sampled database's
    evidence-weighted confidence falls below the minimum.  The default
    behaviour is the degradation-ladder rung instead: warn and fall
    back to static frequency estimates (docs/resilience.md).
    """

    def __init__(self, message: str, confidence: float = 0.0, minimum: float = 0.0):
        self.confidence = confidence
        self.minimum = minimum
        super().__init__(message)


class InjectedFault(ResilienceError):
    """Raised by the fault injector's crashing passes (never by real code)."""

    def __init__(self, message: str = "injected fault"):
        super().__init__(message)


class StrictModeError(ResilienceError):
    """A degradation occurred while ``--strict`` forbids degrading."""
