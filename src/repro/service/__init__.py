"""Partitioning-as-a-service: a long-running job server over the engine.

The sweep engine (PR 4) answers "run this matrix now, in this process".
This package answers the serving question: accept MiniC + RunConfig
submissions over HTTP, queue them fairly across tenants, dedupe
identical requests against both the artifact cache and the in-flight
job table, execute on a supervised worker pool under the resilience
ladder, and stream every lifecycle transition back as NDJSON.

Layering (no HTTP below the top):

- :mod:`~repro.service.jobs` — the :class:`Job` state machine, content
  keyed (:func:`job_key`), with an ordered event log and the
  deterministic :func:`scrub_events` projection goldens pin;
- :mod:`~repro.service.queue` — :class:`FairQueue`: priority buckets,
  round-robin across tenants, FIFO per tenant, per-tenant quotas;
- :mod:`~repro.service.broker` — :class:`Broker`: admission (structured
  400s via :class:`ServiceError`), request coalescing, the supervised
  worker pool (a crashed worker requeues its job, never kills the
  server), counters;
- :mod:`~repro.service.journal` — :class:`Journal`: the crash-safe
  write-ahead log + snapshot pair behind ``repro serve --journal``
  (checksummed NDJSON records, torn-tail truncation, fsync policies,
  snapshot compaction) and the broker's recovery/drain machinery;
- :mod:`~repro.service.http` — :class:`ServiceServer`: the stdlib
  ``ThreadingHTTPServer`` front end (``repro serve``), one thread per
  HTTP/1.1 keep-alive connection;
- :mod:`~repro.service.client` — :class:`ServiceClient`: the
  ``http.client`` client (``repro submit``, load test, tests), one
  kept-alive connection per thread.

A warm job costs one artifact read: the broker's admission probe reads
and verifies the outcome, and the job carries it to its worker.
"""

from .broker import Broker, ServiceError
from .client import ServiceClient
from .http import ServiceServer
from .jobs import (
    CANCELLED,
    DEGRADED,
    DONE,
    FAILED,
    JOB_STATES,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    Job,
    job_key,
    scrub_events,
)
from .journal import Journal, JournalState
from .queue import FairQueue

__all__ = [
    "Broker",
    "CANCELLED",
    "DEGRADED",
    "DONE",
    "FAILED",
    "FairQueue",
    "JOB_STATES",
    "Job",
    "Journal",
    "JournalState",
    "QUEUED",
    "RUNNING",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "TERMINAL_STATES",
    "job_key",
    "scrub_events",
]
