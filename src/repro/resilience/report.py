"""Run reports: JSON-serialisable telemetry for resilient pipeline runs.

A :class:`RunReport` records, in order, everything that happened while a
scheme (or a whole comparison) ran: every attempt with its wall clock
and per-phase clocks, every injected or organic fault, every
retry-with-reseed, every fallback down the degradation ladder, and every
budget expiry.  Attempt and ``final`` seconds are read from the report's
own (injectable) clock.  The JSON form is deterministic (sorted keys,
stable event order); with ``deterministic=True`` it goes through
:func:`scrub`, so two runs with the same
:class:`~repro.resilience.faults.FaultPlan` seed serialise to
byte-identical JSON — the property the fault-injection tests pin.

:data:`SCRUBBED` is the one table of what varies between identical
runs (wall clocks, solver counters, job and worker ids) and :func:`scrub`
the one function that applies it; the sweep, the service's job events
and the identity harness project through it too.

:class:`PhaseTimer` is the per-phase clock the schemes fill in; its
timings ride on :class:`~repro.pipeline.schemes.SchemeOutcome`
(``outcome.timings``, the one read path for phase seconds) and are
copied into the report's attempt events.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

#: Placeholder for an identity (job id, worker id, cache locality) in a
#: deterministic projection.
MASK = "-"

#: What varies between identical runs, field name -> replacement: wall
#: clocks, solver counters (hash seed and machine dependent) and the ids
#: of whoever ran the work.  A mapping field (``phases``) keeps its keys
#: and has every value replaced.  ``uptime_seconds`` and the solver
#: counters zero to the integer 0, the spelling the goldens hold.
SCRUBBED: Dict[str, Any] = {
    "seconds": 0.0, "ts": 0.0, "queue_wait": 0.0, "phases": 0.0,
    "wall_seconds": 0.0, "cell_seconds": 0.0, "speedup": 0.0,
    "uptime_seconds": 0, "solve_seconds": 0, "solver_iterations": 0,
    "job": MASK, "worker": MASK,
}


def scrub(value: Any) -> Any:
    """The deterministic projection of a JSON value: every
    :data:`SCRUBBED` field replaced at any depth, and ``{"kind":
    "cache"}`` events dropped from every list (cache locality depends on
    execution order and on what earlier runs left on disk)."""
    if isinstance(value, list):
        return [
            scrub(item) for item in value
            if not (isinstance(item, dict) and item.get("kind") == "cache")
        ]
    if not isinstance(value, dict):
        return value
    scrubbed = {}
    for key, item in value.items():
        if key not in SCRUBBED:
            item = scrub(item)
        elif isinstance(item, dict):
            item = dict.fromkeys(item, SCRUBBED[key])
        else:
            item = SCRUBBED[key]
        scrubbed[key] = item
    return scrubbed


class PhaseTimer:
    """Accumulates wall-clock seconds per pipeline phase."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.timings: Dict[str, float] = {}

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        start = self._clock()
        try:
            yield
        finally:
            elapsed = self._clock() - start
            self.timings[name] = self.timings.get(name, 0.0) + elapsed


class RunReport:
    """Ordered event log of one resilient run (or comparison of runs).

    Event kinds:

    - ``run``       — a requested scheme starts (one per ``run()`` call)
    - ``attempt``   — one end-to-end scheme execution: status ``ok`` /
      ``error`` / ``invalid``, seconds since :meth:`start_attempt`,
      per-phase seconds, error text, diagnostics
    - ``fault``     — a :class:`FaultPlan` clause fired
    - ``fallback``  — the ladder stepped down a rung
    - ``budget``    — the wall-clock budget expired, ending retries
    - ``final``     — terminal status for a requested scheme
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._t0 = self._attempt_t0 = clock()
        self.events: List[Dict[str, Any]] = []

    # -- recording -------------------------------------------------------------

    def _event(self, kind: str, **fields: Any) -> Dict[str, Any]:
        event: Dict[str, Any] = {"kind": kind}
        event.update(fields)
        self.events.append(event)
        return event

    def record_run(self, requested: str, ladder: List[str]) -> None:
        self._event("run", requested=requested, ladder=list(ladder))

    def start_attempt(self) -> None:
        """Mark the start of the attempt the next :meth:`record_attempt`
        records."""
        self._attempt_t0 = self._clock()

    def record_attempt(
        self,
        scheme: str,
        attempt: int,
        status: str,
        phases: Optional[Dict[str, float]] = None,
        error: Optional[str] = None,
        diagnostics: Optional[List[str]] = None,
    ) -> None:
        self._event(
            "attempt",
            scheme=scheme,
            attempt=attempt,
            status=status,
            seconds=self._clock() - self._attempt_t0,
            phases=dict(sorted((phases or {}).items())),
            error=error,
            diagnostics=sorted(diagnostics or []),
        )

    def record_fault(
        self, scheme: str, attempt: int, clause: str, phase: str, detail: str
    ) -> None:
        self._event(
            "fault",
            scheme=scheme,
            attempt=attempt,
            clause=clause,
            phase=phase,
            detail=detail,
        )

    def record_fallback(self, from_scheme: str, to_scheme: str, reason: str) -> None:
        self._event(
            "fallback", **{"from": from_scheme, "to": to_scheme, "reason": reason}
        )

    def record_budget(self, scheme: str, detail: str) -> None:
        self._event("budget", scheme=scheme, detail=detail)

    def record_pointsto(self, tier: str, stats: Dict[str, Any]) -> None:
        """Record the points-to precision stats the run was prepared with
        (one event per solved tier; ``stats`` as from
        :meth:`PointsToStats.to_dict`)."""
        self._event("pointsto", tier=tier, stats=dict(stats))

    def record_roofline(self, scheme: str, stats: Dict[str, Any]) -> None:
        """Record the data-movement roofline of the scheme that answered
        the run (``stats`` as from
        :meth:`~repro.evalmodel.roofline.RooflineModel.report`).  Every
        field is seed-determined, so the event survives deterministic
        serialisation unscrubbed."""
        self._event("roofline", scheme=scheme, stats=dict(stats))

    def record_cache(self, kind: str, status: str) -> None:
        """Record an artifact-cache consultation (``kind`` is ``prepared``,
        ``outcome`` or ``rhop``; ``status`` is ``hit`` / ``miss`` /
        ``stale``).  Carries no wall clocks, so it is stable under
        deterministic serialisation."""
        self._event("cache", cache=kind, status=status)

    def record_cached_run(self, requested: str, scheme: str) -> None:
        """Record a run a cached outcome answered whole: a one-rung
        ladder whose final is ``scheme``'s stored result."""
        self.record_run(requested, [requested])
        self.record_final(requested, scheme, "ok")

    def cache_events(self) -> List[Dict[str, Any]]:
        return [e for e in self.events if e["kind"] == "cache"]

    def record_final(self, requested: str, scheme: Optional[str], status: str) -> None:
        self._event(
            "final",
            requested=requested,
            scheme=scheme,
            status=status,
            seconds=self._clock() - self._t0,
        )

    # -- queries ---------------------------------------------------------------

    def attempts(self) -> List[Dict[str, Any]]:
        return [e for e in self.events if e["kind"] == "attempt"]

    def faults(self) -> List[Dict[str, Any]]:
        return [e for e in self.events if e["kind"] == "fault"]

    def fallbacks(self) -> List[Dict[str, Any]]:
        return [e for e in self.events if e["kind"] == "fallback"]

    def final(self) -> Optional[Dict[str, Any]]:
        for event in reversed(self.events):
            if event["kind"] == "final":
                return event
        return None

    def outcome_state(self) -> str:
        """The terminal state of this run, the one rule every front end
        (CLI exit code, sweep cell, job) applies:

        - ``"failed"`` unless every ``final`` event has status ok (a
          report with no ``final`` event yet counts as failed);
        - ``"degraded"`` when any ``fallback`` event is present (a ladder
          rung or ``profile:dynamic -> profile:static``) or any ``final``
          was answered by a scheme other than the requested one (a warm
          hit on a degraded outcome records no fallback);
        - ``"ok"`` otherwise.
        """
        finals = [e for e in self.events if e["kind"] == "final"]
        if not finals or any(e["status"] != "ok" for e in finals):
            return "failed"
        if self.fallbacks() or any(
            e["scheme"] != e["requested"] for e in finals
        ):
            return "degraded"
        return "ok"

    # -- serialisation ---------------------------------------------------------

    def to_dict(self, deterministic: bool = False) -> Dict[str, Any]:
        """JSON-ready dict; with ``deterministic=True`` its :func:`scrub`
        projection, leaving only the seed-determined structure —
        byte-stable across runs."""
        summary = {
            "attempts": len(self.attempts()),
            "faults": len(self.faults()),
            "fallbacks": len(self.fallbacks()),
        }
        final = self.final()
        data = {
            "events": [dict(event) for event in self.events],
            "final": (
                {
                    "requested": final["requested"],
                    "scheme": final["scheme"],
                    "status": final["status"],
                }
                if final is not None
                else None
            ),
            "summary": summary,
        }
        return scrub(data) if deterministic else data

    def to_json(self, deterministic: bool = False) -> str:
        return json.dumps(
            self.to_dict(deterministic), indent=2, sort_keys=True
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<run report: {len(self.attempts())} attempt(s), "
            f"{len(self.faults())} fault(s), "
            f"{len(self.fallbacks())} fallback(s)>"
        )
