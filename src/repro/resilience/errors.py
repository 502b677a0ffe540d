"""Phase-attributed error taxonomy for the resilient pipeline.

Every failure the resilience layer handles is normalised into a
:class:`PhaseError` carrying the pipeline phase that failed (``"gdp"``,
``"profilemax"``, ``"rhop"``, ``"moves"``, ``"schedule"``, ...), the
scheme being run, and the underlying cause.  This is what lets the
:class:`~repro.pipeline.Pipeline` decide *where* a
run went wrong and record an attributable entry in the
:class:`~repro.resilience.report.RunReport` instead of letting a bare
``ValueError`` abort the whole comparison.
"""

from __future__ import annotations

from typing import Optional


class ResilienceError(Exception):
    """Base class for everything the resilience layer raises itself."""


class PhaseError(ResilienceError):
    """A pipeline phase raised.

    ``phase`` names the phase at fault, ``scheme`` the scheme that was
    running it, and ``cause`` the original exception (also chained via
    ``__cause__`` so tracebacks stay useful).
    """

    def __init__(
        self,
        phase: str,
        message: str,
        scheme: Optional[str] = None,
        cause: Optional[BaseException] = None,
    ):
        self.phase = phase
        self.scheme = scheme
        self.cause = cause
        where = f" [scheme {scheme}]" if scheme else ""
        super().__init__(f"phase {phase!r}{where}: {message}")
        if cause is not None:
            self.__cause__ = cause


class InjectedFault(PhaseError):
    """A deterministic fault fired by a :class:`~repro.resilience.faults.
    FaultPlan` — distinguishable from organic failures in reports."""


class LadderExhausted(ResilienceError):
    """Every rung of the degradation ladder failed; ``run_report`` holds
    the full retry/fallback history for post-mortem."""

    def __init__(self, message: str, run_report: Optional[object] = None):
        self.run_report = run_report
        super().__init__(message)


def as_phase_error(
    exc: BaseException, phase: str, scheme: Optional[str] = None
) -> PhaseError:
    """Normalise an arbitrary exception into a :class:`PhaseError`.

    ``PhaseError`` subclasses keep their own attribution; everything else
    is attributed to ``phase``.
    """
    if isinstance(exc, PhaseError):
        if exc.scheme is None:
            exc.scheme = scheme
        return exc
    return PhaseError(
        phase, f"{type(exc).__name__}: {exc}", scheme=scheme, cause=exc
    )
