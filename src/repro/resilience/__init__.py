"""Resilience layer: deadlines, retry-with-reseed, degradation ladder,
and deterministic fault injection for the partitioning pipeline.

The pipeline (points-to + profiling → GDP graph partition → RHOP with
locked memory ops) is a chain where one bad phase output poisons
everything downstream.  This package makes the chain survivable:

- :class:`Budget` — cooperative wall-clock/attempt deadline polled inside
  the multilevel and RHOP refinement loops (anytime partitioning: expiry
  returns the best assignment found so far, never a crash);
- :class:`PhaseError` / :class:`InjectedFault` / :class:`LadderExhausted`
  — phase-attributed error taxonomy;
- :class:`RunReport` — deterministic, JSON-serialisable telemetry of
  every attempt, fault, fallback, and budget event;
- :class:`FaultPlan` — seed-driven fault injection (``--fault-spec``) so
  every degradation path is exercisable in tests and CI.

The retry-with-reseed policy and the paper's quality ladder GDP →
Profile Max → Naïve → Unified that consume these pieces live in the one
driver, :class:`repro.pipeline.Pipeline`.
"""

from .budget import Budget, budget_expired
from .errors import (
    InjectedFault,
    InvalidPhaseOutput,
    LadderExhausted,
    PhaseError,
    ResilienceError,
    as_phase_error,
)
from .faults import FaultClause, FaultPlan
from .report import PhaseTimer, RunReport, outcome_state_from_final

__all__ = [
    "Budget",
    "budget_expired",
    "FaultClause",
    "FaultPlan",
    "InjectedFault",
    "InvalidPhaseOutput",
    "LadderExhausted",
    "PhaseError",
    "PhaseTimer",
    "ResilienceError",
    "RunReport",
    "outcome_state_from_final",
    "as_phase_error",
]
