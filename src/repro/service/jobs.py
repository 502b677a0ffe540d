"""Job model for the partitioning service.

A :class:`Job` is one admitted unit of work: a MiniC program (inline
source or a registry benchmark) plus the :class:`~repro.exec.RunConfig`
describing how to partition it.  Jobs move through the state machine

    queued -> running -> done | degraded | failed | cancelled

where ``degraded`` is a *terminal* state — the job completed, but the
resilience ladder (or the profiler rung) fell back along the way — and a
``running`` job that loses its worker transitions back to ``queued``
(a requeue) until the requeue budget is spent.

Every transition appends an ordered :func:`Job.record` event; the event
list *is* the job's NDJSON stream (``GET /v1/jobs/{id}/events``).  Event
payloads carry wall clocks, worker ids and the job id for observability;
:func:`scrub_events` projects them through the one table of what varies
between identical runs (:data:`repro.resilience.report.SCRUBBED`, the
same one a deterministic RunReport applies), leaving a byte-stable
lifecycle that goldens can pin.

Coalescing identity: :func:`job_key` hashes the program content together
with every *result-affecting* RunConfig field (the execution-only ones,
:data:`repro.exec.runconfig.EXECUTION_ONLY_FIELDS`, are excluded, since
the server owns those).  Two submissions with equal keys are the same
work; the broker folds the second onto the first while it is in flight.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterator, List, Optional

from ..exec.cache import canonical_key, content_sha
from ..exec.runconfig import EXECUTION_ONLY_FIELDS, RunConfig
from ..resilience.report import scrub

#: Job states, in lifecycle order.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
DEGRADED = "degraded"
FAILED = "failed"
CANCELLED = "cancelled"

JOB_STATES = (QUEUED, RUNNING, DONE, DEGRADED, FAILED, CANCELLED)

#: States a job never leaves.
TERMINAL_STATES = frozenset((DONE, DEGRADED, FAILED, CANCELLED))

#: Seconds :meth:`Job.follow_events` sleeps between checks for new events
#: when nothing wakes it.
FOLLOW_POLL = 0.5

_REQUIRED = object()

#: A job's durable record, field -> default (a required field has none):
#: one journal snapshot entry, and what replaying the journal folds each
#: job into.  A ``submit`` record is its first ``SUBMIT_FIELDS`` fields,
#: which are also :class:`Job`'s constructor arguments in order.
RECORD_FIELDS: Dict[str, Any] = {
    "job": _REQUIRED, "key": _REQUIRED, "bench": _REQUIRED,
    "source": _REQUIRED, "config": _REQUIRED, "tenant": "default",
    "priority": 0, "state": QUEUED, "attempt": 1, "requeues": 0,
    "coalesced": 0, "error": None, "summary": None,
}
SUBMIT_FIELDS = 7


def job_record(
    fields: Dict[str, Any], count: int = len(RECORD_FIELDS)
) -> Dict[str, Any]:
    """A full record from the first ``count`` record fields of ``fields``:
    a missing optional one (or any later one) takes its default, a
    missing required one raises ``KeyError``."""
    return {
        name: fields[name]
        if index < count and (name in fields or default is _REQUIRED)
        else default
        for index, (name, default) in enumerate(RECORD_FIELDS.items())
    }


def job_key(bench: str, source: str, config: RunConfig) -> str:
    """Content hash identifying one unit of service work.

    ``bench`` is the display/registry name (it names the prepared-program
    artifact, so it is result-relevant); ``source`` the resolved MiniC
    text; ``config`` contributes every field except the execution-only
    ones.  Equal keys <=> identical results, which is what licenses both
    request coalescing and the artifact-cache fast path.
    """
    material: Dict[str, Any] = {
        "kind": "job",
        "bench": bench,
        "source_sha": content_sha(source),
        "config": {
            k: v for k, v in config.to_dict().items()
            if k not in EXECUTION_ONLY_FIELDS
        },
    }
    return canonical_key(material)


def scrub_events(events: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Deterministic projection of an event stream: job ids, worker ids,
    timestamps and queue-wait clocks are execution artifacts -- two
    byte-identical runs of the same job differ only in them -- so
    :func:`~repro.resilience.report.scrub` masks and zeroes them, leaving
    the seed-determined lifecycle the goldens pin."""
    return scrub(events)


class Job:
    """One admitted submission and its full lifecycle.

    Thread-safety: every mutation happens under ``_cond`` (the broker and
    its workers share job instances); readers either take the lock or
    read immutable snapshots (:meth:`snapshot_events`, :meth:`to_dict`).

    A terminal job keeps no engine cell, only the small record that
    :meth:`to_dict` and the journal read: ``summary``, and for a job
    this process finished, ``resilience`` and ``cache``.
    """

    def __init__(
        self,
        job_id: str,
        key: str,
        bench: str,
        source: str,
        config: RunConfig,
        tenant: str = "default",
        priority: int = 0,
        clock=None,
    ):
        import time

        self.id = job_id
        self.key = key
        self.bench = bench
        self.source = source
        self.config = config
        self.tenant = tenant
        self.priority = priority
        self.state = QUEUED
        self.attempt = 1
        self.requeues = 0
        self.coalesced = 0
        self.warm = False
        #: The outcome payload the warm probe read, held only until a
        #: worker takes it; never journaled and never in :meth:`to_dict`.
        self.outcome: Optional[Dict[str, Any]] = None
        self.recovered = False
        #: The engine cell's :func:`~repro.exec.engine.cell_summary`:
        #: journaled, so a recovered job restores it.
        self.summary: Optional[Dict[str, Any]] = None
        self.resilience: Optional[Dict[str, Any]] = None
        self.cache: Optional[Dict[str, str]] = None
        self.error: Optional[str] = None
        self.events: List[Dict[str, Any]] = []
        self._seq = 0
        self._cond = threading.Condition()
        self._clock = clock or time.perf_counter
        self.created = self._clock()
        self.started_at: Optional[float] = None

    # -- state & events --------------------------------------------------------

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def record(self, kind: str, state: Optional[str] = None, **fields: Any) -> None:
        """Append one lifecycle event (and apply the state transition, if
        any) under the job lock; wakes every event-stream follower."""
        with self._cond:
            if state is not None:
                self.state = state
            event: Dict[str, Any] = {
                "seq": self._seq,
                "ts": self._clock() - self.created,
                "job": self.id,
                "kind": kind,
                "state": self.state,
            }
            event.update(fields)
            self._seq += 1
            self.events.append(event)
            self._cond.notify_all()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job reaches a terminal state (True) or the
        timeout expires (False)."""
        with self._cond:
            return self._cond.wait_for(lambda: self.terminal, timeout=timeout)

    def snapshot_events(self, since: int = 0) -> List[Dict[str, Any]]:
        """Copy of the events with ``seq >= since`` (stable, lock-held)."""
        with self._cond:
            return [dict(e) for e in self.events if e["seq"] >= since]

    def follow_events(
        self, timeout: Optional[float] = None
    ) -> Iterator[Dict[str, Any]]:
        """Yield events in order, blocking for new ones until the job is
        terminal (the NDJSON ``?follow=1`` stream).  ``timeout`` bounds
        the whole follow, not each event."""
        deadline = None if timeout is None else self._clock() + timeout
        seq = 0
        while True:
            batch = self.snapshot_events(since=seq)
            for event in batch:
                seq = event["seq"] + 1
                yield event
            with self._cond:
                if self.terminal and self._seq <= seq:
                    return
                if deadline is not None and self._clock() >= deadline:
                    return
                self._cond.wait(timeout=FOLLOW_POLL)

    # -- serialisation ---------------------------------------------------------

    def to_record(self, fields: int = len(RECORD_FIELDS)) -> Dict[str, Any]:
        """The job's durable record cut to its first ``fields`` fields
        (``SUBMIT_FIELDS`` for a ``submit`` record)."""
        with self._cond:
            values = dict(vars(self), job=self.id,
                          config=self.config.to_dict())
        return {name: values[name] for name in list(RECORD_FIELDS)[:fields]}

    @classmethod
    def from_record(cls, record: Dict[str, Any], clock=None) -> "Job":
        """The job a durable record describes (its ``config`` parsed into
        a RunConfig), marked recovered."""
        values = job_record(record)
        job = cls(*list(values.values())[:SUBMIT_FIELDS], clock=clock)
        for name in list(values)[SUBMIT_FIELDS:]:
            setattr(job, name, values[name])
        job.recovered = True
        return job

    def to_dict(self, include_events: bool = False) -> Dict[str, Any]:
        """JSON descriptor for ``GET /v1/jobs/{id}`` and submit replies."""
        with self._cond:
            data: Dict[str, Any] = {
                "id": self.id,
                "key": self.key,
                "bench": self.bench,
                "tenant": self.tenant,
                "priority": self.priority,
                "state": self.state,
                "attempt": self.attempt,
                "requeues": self.requeues,
                "coalesced": self.coalesced,
                "warm": self.warm,
                "recovered": self.recovered,
                "config": self.config.to_dict(),
                "error": self.error,
                "result": self.summary,
            }
            if self.resilience is not None:
                data["resilience"] = self.resilience
                data["cache"] = self.cache
            if include_events:
                data["events"] = [dict(e) for e in self.events]
            return data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<job {self.id} [{self.state}] {self.bench}/"
            f"{self.config.scheme} tenant={self.tenant}>"
        )
