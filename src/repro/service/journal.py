"""Crash-safe job journal: a checksummed NDJSON write-ahead log.

The broker's job table is in-memory; this module is what survives a
``kill -9``.  Every lifecycle transition is appended to
``<root>/journal.ndjson`` as one JSON line carrying a monotonic ``seq``
and a ``crc`` (truncated SHA-256 over the record's canonical JSON), so
recovery can tell a torn tail — the half-record a crash leaves behind
mid-``write(2)`` — from a valid one, and truncate the log at the first
bad line instead of refusing to start.

Record kinds mirror the job state machine::

    submit    {job, key, bench, source, config, tenant, priority}
    coalesce  {job}                        duplicate folded onto the job
    start     {job, attempt}               a worker picked it up
    requeue   {job, attempt, requeues}     worker crashed, job re-entered
    finish    {job, state, error, summary} terminal (done|degraded|failed)
    cancel    {job}
    park      {job}                        shutdown left it non-terminal

Replaying the log (or a snapshot + log suffix) folds these into the
latest known state per job: terminal jobs are restored as history,
queued/running jobs are the ones a restarted broker must requeue.

Durability knobs:

* ``fsync`` policy — ``always`` (fsync every append: an acked submission
  survives any crash; the ``repro serve --journal`` default), ``interval``
  (flush every append, fsync at most every ``fsync_interval`` seconds),
  ``never`` (flush only; the OS decides).
* compaction — every ``compact_every`` appends (and at clean shutdown)
  the broker folds its live job table into ``<root>/snapshot.json``
  (written atomically) and truncates the log, so the journal stays
  O(live + recent) instead of growing forever.

Fault injection: a :class:`~repro.resilience.faults.FaultPlan` passed as
``faults`` makes ``raise:journal`` clauses raise on append and
``torn-write:journal[@seq]`` clauses cut a record's bytes in half — the
deterministic way tests manufacture the torn tails recovery must absorb.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional, Union

from ..resilience.faults import FaultPlan
from .jobs import CANCELLED, QUEUED, RUNNING, SUBMIT_FIELDS, job_record

#: Bumped when the record/snapshot layout changes; a snapshot written
#: under another schema is ignored (the log still replays).
JOURNAL_SCHEMA = 1

JOURNAL_FILE = "journal.ndjson"
SNAPSHOT_FILE = "snapshot.json"

FSYNC_POLICIES = ("always", "interval", "never")


def record_checksum(record: Dict[str, Any]) -> str:
    """Truncated SHA-256 over the canonical JSON of ``record`` (minus
    any ``crc`` field): the per-record integrity stamp."""
    material = {k: v for k, v in record.items() if k != "crc"}
    blob = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


class JournalState:
    """What :meth:`Journal.load` recovered: the folded per-job states.

    ``jobs`` maps job id -> its durable record
    (:data:`~repro.service.jobs.RECORD_FIELDS`, the shape snapshot
    entries use).  Iteration order is submission order (snapshot order
    first, then replayed submits), which is the order recovery requeues
    in.
    """

    def __init__(self) -> None:
        self.jobs: Dict[str, Dict[str, Any]] = {}
        self.last_seq = 0
        self.replayed = 0      # records applied from the log
        self.torn = 0          # bad tail records truncated away
        self.orphaned = 0      # records naming an unknown job (dropped)
        self.from_snapshot = False

    def apply(self, record: Dict[str, Any]) -> None:
        """Fold one (verified) record into the per-job states."""
        kind = record.get("kind")
        if kind == "submit":
            job = job_record(record, SUBMIT_FIELDS)
            self.jobs[job["job"]] = job
            return
        job = self.jobs.get(record.get("job"))
        if job is None:
            self.orphaned += 1
            return
        if kind == "coalesce":
            job["coalesced"] += 1
        elif kind == "start":
            job["state"] = RUNNING
            job["attempt"] = record.get("attempt", job["attempt"])
        elif kind in ("requeue", "park"):
            job["state"] = QUEUED
            job["attempt"] = record.get("attempt", job["attempt"])
            job["requeues"] = record.get("requeues", job["requeues"])
        elif kind == "finish":
            job["state"] = record["state"]
            job["error"] = record.get("error")
            job["summary"] = record.get("summary")
            job["requeues"] = record.get("requeues", job["requeues"])
        elif kind == "cancel":
            job["state"] = CANCELLED
        # unknown kinds: forward-compat, ignored


class Journal:
    """One directory holding the WAL + snapshot pair (see module doc).

    Thread-safe: appends, compaction and load serialise on an internal
    lock which is never held while calling out, so it cannot participate
    in a lock cycle with the broker or its jobs.
    """

    def __init__(
        self,
        root: str,
        fsync: str = "always",
        fsync_interval: float = 0.1,
        compact_every: int = 4096,
        faults: Union[FaultPlan, str, None] = None,
    ):
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync policy must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        if compact_every < 1:
            raise ValueError("compact_every must be >= 1")
        self.root = root
        self.fsync = fsync
        self.fsync_interval = fsync_interval
        self.compact_every = compact_every
        if isinstance(faults, str):
            faults = FaultPlan.parse(faults)
        self.faults = faults
        os.makedirs(self.root, exist_ok=True)
        self._lock = threading.RLock()
        self._fh = None
        self._seq = 0
        self._since_compact = 0
        self._last_fsync = 0.0
        # counters (session)
        self.appended = 0
        self.compactions = 0
        self.torn_at_load = 0

    # -- paths -----------------------------------------------------------------

    @property
    def journal_path(self) -> str:
        return os.path.join(self.root, JOURNAL_FILE)

    @property
    def snapshot_path(self) -> str:
        return os.path.join(self.root, SNAPSHOT_FILE)

    # -- recovery --------------------------------------------------------------

    def load(self) -> JournalState:
        """Recover the folded job states: snapshot first (if readable),
        then every log record newer than it.  A record that fails the
        checksum (or is not one JSON object per line) is a torn tail:
        the file is truncated right before it and replay stops — what
        was acked before it is intact, what was mid-write is gone, which
        is exactly the WAL contract.
        """
        with self._lock:
            self._close_handle()
            state = JournalState()
            self._load_snapshot(state)
            self._replay_log(state)
            self._seq = max(self._seq, state.last_seq)
            self.torn_at_load = state.torn
            return state

    def _load_snapshot(self, state: JournalState) -> None:
        try:
            with open(self.snapshot_path) as handle:
                snapshot = json.load(handle)
        except (FileNotFoundError, OSError, ValueError):
            return
        if (
            not isinstance(snapshot, dict)
            or snapshot.get("schema") != JOURNAL_SCHEMA
            or snapshot.get("crc") != record_checksum(snapshot)
        ):
            # Unreadable/foreign snapshot: fall back to pure log replay.
            return
        for rec in snapshot.get("jobs", []):
            state.jobs[rec["job"]] = dict(rec)
        state.last_seq = int(snapshot.get("seq", 0))
        state.from_snapshot = True

    def _replay_log(self, state: JournalState) -> None:
        try:
            handle = open(self.journal_path, "rb")
        except FileNotFoundError:
            return
        truncate_at: Optional[int] = None
        with handle:
            offset = 0
            for raw in handle:
                line_start = offset
                offset += len(raw)
                try:
                    record = json.loads(raw.decode("utf-8"))
                    if not isinstance(record, dict):
                        raise ValueError("record is not an object")
                    if record.get("crc") != record_checksum(record):
                        raise ValueError("checksum mismatch")
                except ValueError:
                    # Torn tail: everything from here on is untrusted
                    # (a half-written record shifts the framing of every
                    # later line), so cut the log and stop.
                    state.torn += 1
                    truncate_at = line_start
                    break
                seq = int(record.get("seq", 0))
                if seq > state.last_seq:
                    state.last_seq = seq
                    state.apply(record)
                    state.replayed += 1
        if truncate_at is not None:
            try:
                with open(self.journal_path, "r+b") as handle:
                    handle.truncate(truncate_at)
            except OSError:
                pass

    # -- the append path -------------------------------------------------------

    def _handle(self):
        if self._fh is None:
            self._fh = open(self.journal_path, "ab")
        return self._fh

    def _close_handle(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None

    def append(self, kind: str, **fields: Any) -> int:
        """Append one checksummed record; returns its sequence number.

        Under ``fsync="always"`` the record is on disk when this
        returns — the property that makes an acked submission durable.
        """
        with self._lock:
            self._seq += 1
            record: Dict[str, Any] = {"seq": self._seq, "kind": kind}
            record.update(fields)
            record["crc"] = record_checksum(record)
            data = (
                json.dumps(record, sort_keys=True, separators=(",", ":"))
                + "\n"
            ).encode("utf-8")
            if self.faults is not None:
                self.faults.begin_attempt("journal", self._seq)
                self.faults.maybe_raise("journal")
                if self.faults.torn_write("journal"):
                    data = data[: max(1, len(data) // 2)]
            handle = self._handle()
            handle.write(data)
            handle.flush()
            if self.fsync == "always":
                os.fsync(handle.fileno())
            elif self.fsync == "interval":
                now = time.monotonic()
                if now - self._last_fsync >= self.fsync_interval:
                    os.fsync(handle.fileno())
                    self._last_fsync = now
            self.appended += 1
            self._since_compact += 1
            return self._seq

    @property
    def compaction_due(self) -> bool:
        with self._lock:
            return self._since_compact >= self.compact_every

    def compact(self, jobs: List[Dict[str, Any]]) -> None:
        """Fold ``jobs`` (the broker's live table, snapshot-entry shape)
        into ``snapshot.json`` and truncate the log.  The snapshot is
        written atomically (temp + ``os.replace`` + fsync) *before* the
        log is cut, so a crash between the two steps merely replays
        records the snapshot already covers — idempotent by seq."""
        with self._lock:
            snapshot: Dict[str, Any] = {
                "schema": JOURNAL_SCHEMA,
                "seq": self._seq,
                "jobs": jobs,
            }
            snapshot["crc"] = record_checksum(snapshot)
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    json.dump(snapshot, handle, sort_keys=True)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp, self.snapshot_path)
            except OSError:
                try:
                    os.remove(tmp)
                except OSError:
                    pass
                return
            self._close_handle()
            with open(self.journal_path, "wb") as handle:
                handle.flush()
                os.fsync(handle.fileno())
            self._since_compact = 0
            self.compactions += 1

    def close(self) -> None:
        with self._lock:
            if self._fh is not None and self.fsync != "never":
                try:
                    self._fh.flush()
                    os.fsync(self._fh.fileno())
                except (OSError, ValueError):
                    pass
            self._close_handle()

    # -- observability ---------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            try:
                log_bytes = os.path.getsize(self.journal_path)
            except OSError:
                log_bytes = 0
            return {
                "enabled": True,
                "root": self.root,
                "fsync": self.fsync,
                "seq": self._seq,
                "appended": self.appended,
                "since_compact": self._since_compact,
                "compactions": self.compactions,
                "torn_at_load": self.torn_at_load,
                "log_bytes": log_bytes,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<journal {self.root} fsync={self.fsync} seq={self._seq} "
            f"appended={self.appended}>"
        )
