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
    """A pipeline phase failed (raised, or produced an invalid output).

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


class InvalidPhaseOutput(PhaseError):
    """A phase completed but its output was rejected by the partition
    validity checker (:mod:`repro.lint.partcheck`)."""

    def __init__(
        self,
        phase: str,
        scheme: Optional[str] = None,
        report: Optional[object] = None,
    ):
        self.diagnostics = report
        summary = (
            report.summary() if report is not None else "validity check failed"
        )
        super().__init__(phase, summary, scheme=scheme)


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

    Exceptions that already carry a phase (``PhaseError`` subclasses and
    :class:`repro.lint.PartitionValidityError`) keep their own attribution;
    everything else is attributed to ``phase``.
    """
    if isinstance(exc, PhaseError):
        if exc.scheme is None:
            exc.scheme = scheme
        return exc
    exc_phase = getattr(exc, "phase", None)
    if exc_phase and getattr(exc, "report", None) is not None:
        # repro.lint.PartitionValidityError: validation rejected the output.
        err = InvalidPhaseOutput(exc_phase, scheme=scheme, report=exc.report)
        err.cause = exc
        err.__cause__ = exc
        return err
    return PhaseError(
        phase, f"{type(exc).__name__}: {exc}", scheme=scheme, cause=exc
    )
