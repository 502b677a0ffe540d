"""The job broker: admission control, coalescing, supervised execution.

One :class:`Broker` owns the whole serving data path:

* **Admission** — :meth:`submit` validates the request at the boundary
  (strict :class:`~repro.exec.RunConfig` parse; unknown fields and
  schema mismatches become structured 400s carrying the offending
  field), resolves the program (inline ``source`` or a registry
  ``bench``), and computes the job's content key.
* **Coalescing** — a submission whose key matches a queued/running job
  is folded onto it: no new work enters the queue, the existing job's
  ``coalesced`` count rises, and the caller gets the same job id back.
  Together with the artifact cache (which answers *completed* duplicates
  across restarts and tenants) this dedupes identical requests at both
  timescales.
* **Execution** — a supervised pool of worker threads drains the
  :class:`~repro.service.queue.FairQueue`.  Each job runs through the
  execution engine's cell runner, i.e. under the full resilience ladder:
  a faulted scheme degrades rung by rung instead of failing the job, and
  a *crashed worker* (anything escaping the cell runner, including an
  injected ``raise:worker`` fault) is caught by the supervisor, which
  requeues the job — up to ``max_requeues`` — and keeps serving.  The
  server never dies with a job.
* **Observability** — every transition lands in the job's event stream;
  :meth:`stats` aggregates queue depth, per-state job counts, coalesce
  and warm-cache rates, and the artifact cache's own counters.
* **Durability** — with a :class:`~repro.service.journal.Journal`
  attached, every transition is write-ahead logged *before* it is
  acknowledged, a fresh broker on the same directory recovers the job
  table (requeueing whatever a crash interrupted, served warm from the
  artifact cache when the outcome already landed), shutdown can *drain*
  (finish or park in-flight work), and bounded queue depth / per-tenant
  admission return 429 + ``Retry-After`` instead of accepting without
  bound.  See :mod:`~repro.service.journal` and DESIGN.md §11.

Workers are *threads*, deliberately: a job is one deterministic engine
cell, and CPU-level parallelism across cells already lives in
:class:`~repro.exec.ParallelRunner`.  Serving throughput comes from
coalescing + the content-addressed cache, which turn duplicate traffic
into O(1) lookups — the measured property in
``benchmarks/bench_service_throughput.py``.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional, Tuple

# The cell runner and the warm probe both drive repro.pipeline, which the
# engine imports lazily; importing it with the broker keeps that one-time
# import (and the import lock it holds) off the first requests' path.
from .. import pipeline  # noqa: F401
from ..exec.cache import ArtifactCache
from ..exec.engine import lookup_cached_outcome, run_cell
from ..exec.runconfig import RunConfig, RunConfigError
from ..resilience.report import outcome_state_from_final
from .jobs import (
    CANCELLED,
    DEGRADED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    Job,
    job_key,
)
from .journal import Journal, JournalState
from .queue import FairQueue


class ServiceError(Exception):
    """A request the service refuses, mapped to an HTTP status.

    ``code`` is a stable machine-readable slug; ``fields`` names the
    offending request/config keys (may be empty).  The HTTP layer
    serialises this as ``{"error": {code, message, fields}}`` — a
    malformed RunConfig is a structured 400, never a 500 traceback.

    ``retry_after`` (seconds) rides along on backpressure rejections
    (429): the HTTP layer turns it into a ``Retry-After`` header and
    :class:`~repro.service.client.ServiceClient` honours it as the
    floor of its backoff delay.
    """

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        fields: tuple = (),
        retry_after: Optional[float] = None,
    ):
        super().__init__(message)
        self.status = status
        self.code = code
        self.fields = tuple(fields)
        self.retry_after = retry_after

    def to_dict(self) -> Dict[str, Any]:
        error: Dict[str, Any] = {
            "code": self.code,
            "message": str(self),
            "fields": list(self.fields),
        }
        if self.retry_after is not None:
            error["retry_after"] = self.retry_after
        return {"error": error}


#: Request keys :meth:`Broker.submit` understands; anything else is a 400
#: (the same strictness RunConfig applies one level down).
_REQUEST_FIELDS = frozenset(
    ("bench", "source", "name", "config", "tenant", "priority")
)


class Broker:
    """Queue + job table + supervised worker pool (see module docstring).

    Parameters
    ----------
    config:
        Server-side base config.  Its ``cache``/``cache_dir`` govern the
        shared artifact store; submissions may not override them (the
        server owns its disk).
    workers:
        Worker thread count.  ``start=False`` builds the broker without
        starting them (tests drive execution manually).
    quota:
        Per-tenant in-flight cap (admission control), None = unbounded.
    max_requeues:
        How many times a job survives losing its worker before it is
        failed.
    journal / journal_dir:
        An explicit :class:`~repro.service.journal.Journal`, or a
        directory to open one in (``fsync`` selects its policy).  With
        either, every lifecycle transition is write-ahead logged and a
        fresh broker on the same directory *recovers*: terminal jobs are
        restored as history, queued/running ones are requeued (served
        warm from the artifact cache when their outcome already landed).
    max_depth:
        Queue-depth admission bound: a submission that would push the
        backlog past it is refused with 429 + ``Retry-After``
        (coalescing duplicates always pass — they add no work).
    tenant_pending:
        Per-tenant bound on *non-terminal* jobs, same 429 contract.
    retry_after:
        The hint (seconds) sent with backpressure rejections.
    """

    def __init__(
        self,
        config: Optional[RunConfig] = None,
        workers: int = 2,
        quota: Optional[int] = None,
        max_requeues: int = 1,
        start: bool = True,
        clock=time.perf_counter,
        journal: Optional[Journal] = None,
        journal_dir: Optional[str] = None,
        fsync: str = "always",
        max_depth: Optional[int] = None,
        tenant_pending: Optional[int] = None,
        retry_after: float = 1.0,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_requeues < 0:
            raise ValueError("max_requeues must be >= 0")
        if max_depth is not None and max_depth < 1:
            raise ValueError("max_depth must be >= 1 (or None for unbounded)")
        if tenant_pending is not None and tenant_pending < 1:
            raise ValueError(
                "tenant_pending must be >= 1 (or None for unbounded)"
            )
        self.config = config or RunConfig()
        self.max_requeues = max_requeues
        self.max_depth = max_depth
        self.tenant_pending = tenant_pending
        self.retry_after = retry_after
        self.queue = FairQueue(quota=quota)
        self.cache = ArtifactCache(self.config.cache_dir, self.config.cache)
        self._clock = clock
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._inflight: Dict[str, Job] = {}  # key -> queued/running job
        self._tenant_pending: Dict[str, int] = {}  # tenant -> non-terminal
        self._next_id = 0
        self._stopping = False   # admission off
        self._halting = False    # workers wind down
        self.started = clock()
        # counters (under _lock)
        self.submitted = 0
        self.coalesced = 0
        self.completed = 0
        self.requeued = 0
        self.worker_crashes = 0
        self.warm_submissions = 0
        self.warm_outcomes = 0
        self.rejected_depth = 0
        self.rejected_tenant = 0
        self.journal_errors = 0
        self.recovered_jobs = 0
        self.recovery_requeued = 0
        self.parked = 0
        self._worker_count = workers
        self._workers: List[threading.Thread] = []
        if journal is None and journal_dir is not None:
            journal = Journal(journal_dir, fsync=fsync)
        self.journal = journal
        if self.journal is not None:
            self._recover(self.journal.load())
            # Fold recovery into a fresh snapshot immediately: restart
            # loops never replay the same log twice.
            self._compact_journal()
        if start:
            self.start()

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Start the worker pool (idempotent)."""
        with self._lock:
            missing = self._worker_count - len(
                [t for t in self._workers if t.is_alive()]
            )
            for _ in range(max(0, missing)):
                index = len(self._workers)
                thread = threading.Thread(
                    target=self._worker_loop,
                    args=(f"w{index}",),
                    name=f"repro-service-worker-{index}",
                    daemon=True,
                )
                self._workers.append(thread)
                thread.start()

    def shutdown(
        self, wait: bool = True, timeout: float = 30.0, drain: bool = False
    ) -> None:
        """Stop accepting work, close the queue, join the workers.

        ``drain=True`` is the graceful path (SIGTERM, ``POST
        /v1/shutdown?drain=1``): admission stops immediately, but the
        workers keep draining already-admitted jobs until the table is
        terminal or ``timeout`` expires.  Whatever is still non-terminal
        then is *parked* — journaled as queued so the next broker on the
        same journal directory requeues it — and the journal is
        compacted and closed.
        """
        self._stopping = True
        deadline = self._clock() + timeout
        if drain:
            while self._clock() < deadline:
                with self._lock:
                    busy = any(
                        not job.terminal for job in self._jobs.values()
                    )
                if not busy:
                    break
                time.sleep(0.05)
        self._halting = True
        self.queue.close()
        if wait:
            for thread in self._workers:
                remaining = max(0.05, deadline - self._clock())
                thread.join(timeout=remaining)
        with self._lock:
            leftovers = [
                job for job in self._jobs.values() if not job.terminal
            ]
            self.parked += len(leftovers)
        for job in leftovers:
            job.record("parked", state=QUEUED)
            self._journal_append("park", job=job.id)
        if self.journal is not None:
            self._compact_journal()
            self.journal.close()

    # -- durability ------------------------------------------------------------

    def _journal_append(self, kind: str, **fields: Any) -> None:
        """Write-ahead one transition; a journal failure degrades
        durability, never availability (counted, not raised)."""
        if self.journal is None:
            return
        try:
            self.journal.append(kind, **fields)
        except Exception:  # noqa: BLE001 - durability vs availability
            with self._lock:
                self.journal_errors += 1
            return
        if self.journal.compaction_due:
            self._compact_journal()

    def _job_journal_entry(self, job: Job) -> Dict[str, Any]:
        """Snapshot-entry projection of one job (journal replay shape)."""
        return {
            "job": job.id,
            "key": job.key,
            "bench": job.bench,
            "source": job.source,
            "config": job.config.to_dict(),
            "tenant": job.tenant,
            "priority": job.priority,
            "state": job.state,
            "attempt": job.attempt,
            "requeues": job.requeues,
            "coalesced": job.coalesced,
            "error": job.error,
            "summary": job.result_summary(),
        }

    def _compact_journal(self) -> None:
        if self.journal is None:
            return
        with self._lock:
            jobs = [
                self._job_journal_entry(self._jobs[jid])
                for jid in sorted(self._jobs)
            ]
        try:
            self.journal.compact(jobs)
        except Exception:  # noqa: BLE001 - durability vs availability
            with self._lock:
                self.journal_errors += 1

    def _recover(self, state: JournalState) -> None:
        """Rebuild the job table from a loaded journal.

        Terminal jobs come back as history (their summary answers
        ``GET /v1/jobs/{id}`` without recompute).  Queued/running jobs —
        the ones a crash interrupted — are requeued; the existing
        ``job_key`` dedupe plus the artifact cache make the rerun
        idempotent: work whose outcome landed before the crash is served
        warm, everything else recomputes deterministically.
        """
        for rec in state.jobs.values():
            try:
                config = self._server_owned(RunConfig.from_dict(rec["config"]))
                job = Job(
                    rec["job"], rec["key"], rec["bench"], rec["source"],
                    config, tenant=rec.get("tenant", "default"),
                    priority=rec.get("priority", 0), clock=self._clock,
                )
            except Exception:  # noqa: BLE001 - a foreign/corrupt record
                self.journal_errors += 1
                continue
            job.recovered = True
            job.attempt = rec.get("attempt", 1)
            job.requeues = rec.get("requeues", 0)
            job.coalesced = rec.get("coalesced", 0)
            self._jobs[job.id] = job
            self.recovered_jobs += 1
            try:
                self._next_id = max(self._next_id, int(job.id.lstrip("j")))
            except ValueError:
                pass
            if rec["state"] in TERMINAL_STATES:
                job.error = rec.get("error")
                job.summary_override = rec.get("summary")
                job.record("recovered", state=rec["state"],
                           requeues=job.requeues)
                continue
            job.warm = self._probe_warm(job.source, job.bench, config)
            job.record("recovered", state=QUEUED, attempt=job.attempt,
                       warm=job.warm)
            self._inflight[job.key] = job
            self._tenant_pending[job.tenant] = (
                self._tenant_pending.get(job.tenant, 0) + 1
            )
            self.queue.push(job)
            self.recovery_requeued += 1

    # -- admission -------------------------------------------------------------

    def _parse_config(self, data: Any) -> RunConfig:
        if data is None:
            data = {}
        try:
            config = RunConfig.from_dict(data)
        except RunConfigError as exc:
            raise ServiceError(
                400, "invalid_config", str(exc), fields=exc.fields
            ) from None
        except ValueError as exc:
            raise ServiceError(400, "invalid_config", str(exc)) from None
        return self._server_owned(config)

    def _server_owned(self, config: RunConfig) -> RunConfig:
        """The server owns the shared store and the worker pool; a job is
        one cell, so client-side parallelism/cache knobs are stripped
        before the config reaches the engine (and the coalescing key
        already ignores them)."""
        return config.replace(
            jobs=None, cache=self.config.cache,
            cache_dir=self.config.cache_dir,
        )

    def _probe_warm(self, source: str, name: str, config: RunConfig) -> bool:
        """Whether the store already holds this job's outcome (read-only;
        telemetry only — the worker's cell runner re-resolves it)."""
        probe = ArtifactCache(self.config.cache_dir, "readonly")
        return lookup_cached_outcome(source, name, config, probe) is not None

    def _resolve_program(self, request: Dict[str, Any]) -> Tuple[str, str]:
        source = request.get("source")
        bench = request.get("bench")
        if source is not None and bench is not None:
            raise ServiceError(
                400, "invalid_request",
                "pass either 'source' or 'bench', not both",
                fields=("source", "bench"),
            )
        if source is not None:
            if not isinstance(source, str) or not source.strip():
                raise ServiceError(
                    400, "invalid_request", "'source' must be MiniC text",
                    fields=("source",),
                )
            return str(request.get("name", "program")), source
        if bench is not None:
            from ..bench import get as get_benchmark

            try:
                found = get_benchmark(bench)
            except KeyError:
                raise ServiceError(
                    404, "unknown_bench",
                    f"no benchmark named {bench!r} in the registry",
                    fields=("bench",),
                ) from None
            return found.name, found.source
        raise ServiceError(
            400, "invalid_request",
            "a job needs a 'source' program or a 'bench' name",
            fields=("source", "bench"),
        )

    def submit(self, request: Any) -> Tuple[Job, bool]:
        """Admit one request; returns ``(job, created)``.

        ``created=False`` means the request coalesced onto an in-flight
        job with the same content key (the returned job is that one).
        """
        if self._stopping:
            raise ServiceError(
                503, "shutting_down", "server is shutting down"
            )
        if not isinstance(request, dict):
            raise ServiceError(
                400, "invalid_request", "request body must be a JSON object"
            )
        unknown = sorted(set(request) - _REQUEST_FIELDS)
        if unknown:
            raise ServiceError(
                400, "invalid_request",
                f"unknown request field(s) {unknown}",
                fields=tuple(unknown),
            )
        tenant = str(request.get("tenant", "default"))
        priority = request.get("priority", 0)
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise ServiceError(
                400, "invalid_request", "'priority' must be an integer",
                fields=("priority",),
            )
        config = self._parse_config(request.get("config"))
        name, source = self._resolve_program(request)
        key = job_key(name, source, config)
        with self._lock:
            existing = self._inflight.get(key)
            if existing is not None and not existing.terminal:
                # Coalescing bypasses the backpressure checks below: a
                # duplicate adds zero work, so refusing it would only
                # make an overloaded server *more* loaded via retries.
                self.submitted += 1
                existing.coalesced += 1
                self.coalesced += 1
                existing.record("coalesced", tenant=tenant)
                journal_coalesce = existing.id
            else:
                journal_coalesce = None
                if (
                    self.max_depth is not None
                    and self.queue.depth() >= self.max_depth
                ):
                    self.rejected_depth += 1
                    raise ServiceError(
                        429, "overloaded",
                        f"queue depth is at its bound ({self.max_depth}); "
                        f"retry later",
                        retry_after=self.retry_after,
                    )
                if (
                    self.tenant_pending is not None
                    and self._tenant_pending.get(tenant, 0)
                    >= self.tenant_pending
                ):
                    self.rejected_tenant += 1
                    raise ServiceError(
                        429, "tenant_overloaded",
                        f"tenant {tenant!r} has {self.tenant_pending} "
                        f"job(s) pending (its admission bound); retry later",
                        fields=("tenant",),
                        retry_after=self.retry_after,
                    )
                self.submitted += 1
                self._next_id += 1
                job = Job(
                    f"j{self._next_id:06d}", key, name, source, config,
                    tenant=tenant, priority=priority, clock=self._clock,
                )
                self._jobs[job.id] = job
                self._inflight[key] = job
                self._tenant_pending[tenant] = (
                    self._tenant_pending.get(tenant, 0) + 1
                )
        if journal_coalesce is not None:
            self._journal_append("coalesce", job=journal_coalesce)
            return existing, False
        # Write-ahead *before* the ack: under fsync=always a submission
        # the client saw accepted survives any crash from here on.
        self._journal_append(
            "submit", job=job.id, key=key, bench=name, source=source,
            config=config.to_dict(), tenant=tenant, priority=priority,
        )
        # Warm probe outside the broker lock (it touches the disk store).
        job.warm = self._probe_warm(source, name, config)
        if job.warm:
            with self._lock:
                self.warm_submissions += 1
        job.record("queued", state=QUEUED, tenant=tenant,
                   priority=priority, warm=job.warm)
        try:
            self.queue.push(job)
        except RuntimeError:
            # Shutdown raced the admission check; the job is journaled
            # and will be recovered, but this caller should back off.
            raise ServiceError(
                503, "shutting_down", "server is shutting down"
            ) from None
        return job, True

    # -- lookup ----------------------------------------------------------------

    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(
                404, "unknown_job", f"no job {job_id!r}", fields=("id",)
            )
        return job

    def jobs(self) -> List[Job]:
        with self._lock:
            return [self._jobs[k] for k in sorted(self._jobs)]

    def cancel(self, job_id: str) -> Job:
        """Cancel a queued job (running/terminal jobs are not
        cancellable — the resilience ladder owns a running cell)."""
        job = self.get(job_id)
        if not self.queue.cancel(job):
            raise ServiceError(
                409, "not_cancellable",
                f"job {job_id} is {job.state}; only queued jobs can be "
                f"cancelled",
            )
        with self._lock:
            if self._inflight.get(job.key) is job:
                del self._inflight[job.key]
            self._release_tenant(job.tenant)
        self._journal_append("cancel", job=job.id)
        return job

    # -- execution -------------------------------------------------------------

    def _worker_loop(self, worker_id: str) -> None:
        # Gated on _halting, not _stopping: a draining shutdown stops
        # admission first but keeps the pool running until the backlog
        # is terminal (or the drain deadline parks it).
        while not self._halting:
            job = self.queue.pop(timeout=0.2)
            if job is None:
                continue
            try:
                self._execute(job, worker_id)
            finally:
                self.queue.task_done(job)

    def _execute(self, job: Job, worker_id: str) -> None:
        with job._cond:
            if job.state == CANCELLED:
                return
        job.started_at = self._clock()
        job.record(
            "started", state=RUNNING, worker=worker_id, attempt=job.attempt,
            queue_wait=job.started_at - job.created,
        )
        self._journal_append("start", job=job.id, attempt=job.attempt)
        try:
            # The worker itself is a fault-injection phase: a
            # ``raise:worker[@attempt]`` clause models this worker dying
            # mid-job.  The supervisor below is what turns that into a
            # requeue instead of a dead server.  Only clauses naming the
            # ``worker`` phase *explicitly* fire here — ``raise:*`` keeps
            # meaning "fault every ladder rung", not "kill the worker".
            self._maybe_crash(job)
            cell = run_cell(
                {
                    "bench": job.bench,
                    "source": job.source,
                    "config": job.config.to_dict(),
                },
                cache=self.cache,
            )
        except Exception as exc:  # noqa: BLE001 - supervision boundary
            self._supervise_crash(job, worker_id, exc)
            return
        self._finish(job, cell)

    @staticmethod
    def _maybe_crash(job: Job) -> None:
        faults = job.config.build_faults()
        if faults is None:
            return
        worker_clauses = [
            c for c in faults.clauses
            if c.kind == "raise" and c.phase == "worker"
        ]
        if not worker_clauses:
            return
        from ..resilience import FaultPlan

        plan = FaultPlan(worker_clauses, seed=faults.seed)
        plan.begin_attempt("worker", job.attempt)
        plan.maybe_raise("worker")

    def _supervise_crash(self, job: Job, worker_id: str, exc: Exception) -> None:
        """A worker died under ``job``: requeue or fail, never propagate."""
        detail = f"{type(exc).__name__}: {exc}"
        with self._lock:
            self.worker_crashes += 1
        job.record("worker-crash", worker=worker_id, attempt=job.attempt,
                   error=detail)
        if job.requeues < self.max_requeues:
            job.requeues += 1
            job.attempt += 1
            with self._lock:
                self.requeued += 1
            job.record("requeued", state=QUEUED, attempt=job.attempt)
            self._journal_append("requeue", job=job.id, attempt=job.attempt,
                                 requeues=job.requeues)
            try:
                self.queue.push(job)
            except RuntimeError:
                # Requeue raced shutdown: leave the job queued — the
                # park pass (and the journal) hand it to the next boot.
                pass
            return
        job.error = detail
        self._terminal(job, FAILED, error=detail,
                       requeues=job.requeues)

    def _finish(self, job: Job, cell: Dict[str, Any]) -> None:
        """Map a finished engine cell onto the job's terminal state."""
        job.result = cell
        with self._lock:
            if cell["cache"].get("outcome") == "hit":
                self.warm_outcomes += 1
        ladder_state = outcome_state_from_final(
            cell["report"].get("final")
        )
        if cell["status"] == "failed" or ladder_state == "failed":
            job.error = cell["error"]
            self._terminal(job, FAILED, error=cell["error"],
                           requeues=job.requeues)
            return
        if cell["status"] == "degraded" or ladder_state == "degraded":
            job.record("degraded", ran_as=cell["ran_as"],
                       requested=cell["scheme"])
            final = DEGRADED
        else:
            final = DONE
        self._terminal(
            job, final,
            ran_as=cell["ran_as"], cycles=cell["cycles"],
            dynamic_moves=cell["dynamic_moves"],
            requeues=job.requeues, coalesced=job.coalesced,
        )

    def _terminal(self, job: Job, state: str, **fields: Any) -> None:
        job.finished_at = self._clock()
        with self._lock:
            self.completed += 1
            if self._inflight.get(job.key) is job:
                del self._inflight[job.key]
            self._release_tenant(job.tenant)
        job.record("finished", state=state, **fields)
        self._journal_append(
            "finish", job=job.id, state=state, error=job.error,
            summary=job.result_summary(), requeues=job.requeues,
        )

    def _release_tenant(self, tenant: str) -> None:
        """Drop one from the tenant's non-terminal count (lock held)."""
        count = self._tenant_pending.get(tenant, 0) - 1
        if count > 0:
            self._tenant_pending[tenant] = count
        else:
            self._tenant_pending.pop(tenant, None)

    # -- observability ---------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """The ``/v1/stats`` payload: machine-readable counters only."""
        with self._lock:
            by_state: Dict[str, int] = {}
            for job in self._jobs.values():
                by_state[job.state] = by_state.get(job.state, 0) + 1
            submitted = self.submitted
            coalesced = self.coalesced
            jobs = {
                "submitted": submitted,
                "created": len(self._jobs),
                "coalesced": coalesced,
                "completed": self.completed,
                "requeued": self.requeued,
                "worker_crashes": self.worker_crashes,
                "by_state": dict(sorted(by_state.items())),
            }
            warm = {
                "submissions": self.warm_submissions,
                "outcome_hits": self.warm_outcomes,
            }
            admission = {
                "max_depth": self.max_depth,
                "tenant_pending": self.tenant_pending,
                "retry_after": self.retry_after,
                "rejected_depth": self.rejected_depth,
                "rejected_tenant": self.rejected_tenant,
                "pending_by_tenant": dict(
                    sorted(self._tenant_pending.items())
                ),
            }
            recovery = {
                "recovered": self.recovered_jobs,
                "requeued": self.recovery_requeued,
                "parked": self.parked,
                "journal_errors": self.journal_errors,
            }
            ratios = [
                job.result["roofline_ratio"]
                for job in self._jobs.values()
                if job.result is not None
                and job.result.get("roofline_ratio")
            ]
            roofline = {
                "jobs": len(ratios),
                "min_ratio": round(min(ratios), 4) if ratios else None,
                "max_ratio": round(max(ratios), 4) if ratios else None,
                "mean_ratio": (
                    round(sum(ratios) / len(ratios), 4) if ratios else None
                ),
            }
            alive = sum(1 for t in self._workers if t.is_alive())
        journal = (
            self.journal.stats() if self.journal is not None
            else {"enabled": False}
        )
        return {
            "uptime_seconds": self._clock() - self.started,
            "jobs": jobs,
            "coalesce_ratio": (coalesced / submitted) if submitted else 0.0,
            "warm": warm,
            "admission": admission,
            "recovery": recovery,
            "journal": journal,
            "queue": self.queue.stats(),
            "workers": {"pool": self._worker_count, "alive": alive},
            "cache": self.cache.stats(),
            "roofline": roofline,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<broker {len(self._jobs)} job(s), "
            f"queue depth {self.queue.depth()}, "
            f"{self._worker_count} worker(s)>"
        )
