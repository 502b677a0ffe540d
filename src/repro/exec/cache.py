"""Content-addressed on-disk artifact cache for the execution engine.

Artifacts (serialized profiles, points-to annotations, coarsened-graph
groups, partition assignments, scheme outcomes) are stored as JSON under
``<root>/objects/<kind>/<kk>/<key>.json`` where ``key`` is the SHA-256 of
the canonical JSON of the artifact's *key material* — for outcomes that
is ``(IR module hash, machine fingerprint, points-to tier, scheme,
seed, profile mode)`` plus the schema version, so a cache entry can
never be confused with a result produced under different inputs.

The root defaults to ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``; every
CLI entry point accepts ``--cache-dir``.  Writes are atomic
(temp file + ``os.replace``) so concurrent pool workers racing on the
same key simply last-write-win with identical content.  Hit / miss /
stale counters accumulate per cache instance and feed the sweep report's
cache columns and ``repro cache stats``.

Multi-process coordination (a shared multi-tenant cache dir, the job
server's normal deployment) adds two guards on top of the atomic writes:

* an advisory file lock (``<root>/.lock``) — writers hold it *shared*
  around each store, ``gc``/``clear`` hold it *exclusive* — so eviction
  never runs concurrently with an in-flight write;
* a *generation grace window*: ``gc(grace_seconds=...)`` never removes
  an entry younger than the window, closing the race where eviction
  under size pressure deletes an artifact another process just wrote and
  is about to read back.

Reads refresh an entry's mtime, so size-pressure eviction is LRU (least
recently *used*), not oldest-written — a tenant's hot artifacts survive
another tenant's churn.

Integrity: every entry carries a ``digest`` — the SHA-256 of its own
canonical JSON minus that field — written at store time and verified on
*every* load.  A mismatch (bit rot, a torn write that still parses, a
flipped byte) or an undecodable file is **corruption**, handled by
self-healing: the entry is moved to ``<root>/quarantine/`` (preserved
for forensics, never silently deleted), counted, and reported as a miss
so the engine recomputes and re-stores it.  A corrupt cache can slow the
system down; it can never poison a result or crash a cell.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional, Tuple

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from .runconfig import SCHEMA_VERSION

#: Artifact kinds the engine stores (subdirectories of ``objects/``).
KINDS = ("prepared", "outcome", "rhop")


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def canonical_key(material: Dict[str, Any]) -> str:
    """SHA-256 over the canonical (sorted, compact) JSON of ``material``."""
    blob = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def content_sha(text: str) -> str:
    """SHA-256 of a text blob (source files, serialized IR modules)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def entry_digest(entry: Dict[str, Any]) -> str:
    """The integrity stamp of one cache entry: SHA-256 over its
    canonical JSON with the ``digest`` field itself excluded.  Covering
    the whole entry (not just the payload) means *any* byte flip that
    still parses as JSON is caught, not only payload damage."""
    material = {k: v for k, v in entry.items() if k != "digest"}
    return canonical_key(material)


class ArtifactCache:
    """One process's handle on the on-disk artifact store.

    ``policy`` is a :data:`~repro.exec.runconfig.CACHE_POLICIES` value:
    ``on`` (read+write), ``off`` (inert), ``readonly`` (hits only, never
    writes), ``refresh`` (recompute everything, overwrite entries).
    """

    def __init__(self, root: Optional[str] = None, policy: str = "on"):
        self.root = root or default_cache_dir()
        self.policy = policy
        self.hits = 0
        self.misses = 0
        self.stale = 0
        self.stores = 0
        self.evictions = 0
        self.corrupt = 0
        self.quarantined = 0

    # -- keys & paths ----------------------------------------------------------

    def _objects_dir(self) -> str:
        return os.path.join(self.root, "objects")

    def _quarantine_dir(self) -> str:
        return os.path.join(self.root, "quarantine")

    def _path(self, kind: str, key: str) -> str:
        return os.path.join(self._objects_dir(), kind, key[:2], key + ".json")

    # -- multi-process write/evict coordination --------------------------------

    @contextmanager
    def _locked(self, exclusive: bool) -> Iterator[None]:
        """Advisory flock on ``<root>/.lock``: shared around stores,
        exclusive around gc/clear.  A no-op where ``fcntl`` is missing —
        the atomic-write guarantees still hold there, only the
        eviction-vs-writer exclusion is lost."""
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        os.makedirs(self.root, exist_ok=True)
        fd = os.open(os.path.join(self.root, ".lock"),
                     os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)
            yield
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)

    # -- load / store ----------------------------------------------------------

    def load(self, kind: str, material: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """The payload stored for ``material``, or None on miss.

        An entry written under a different schema version (or predating
        the digest stamp) counts as *stale*: it is deleted and reported
        as a miss, so a schema bump invalidates the whole store lazily.
        An entry that fails to decode or whose digest does not verify is
        *corrupt*: it is quarantined (see :meth:`_quarantine`) and
        reported as a miss — the caller recomputes, which is the
        self-heal.
        """
        if self.policy in ("off", "refresh"):
            self.misses += 1
            return None
        key = canonical_key(material)
        path = self._path(kind, key)
        try:
            with open(path, "rb") as handle:
                entry = json.loads(handle.read().decode("utf-8"))
            if not isinstance(entry, dict):
                raise ValueError("entry is not an object")
        except FileNotFoundError:
            self.misses += 1
            return None
        except ValueError:
            # Damaged bytes (bit rot / torn write): quarantine + recompute.
            self.corrupt += 1
            self._quarantine(path)
            return None
        except OSError:
            self.stale += 1
            self._remove_quietly(path)
            return None
        if (
            entry.get("schema") != SCHEMA_VERSION
            or entry.get("kind") != kind
            or "digest" not in entry
        ):
            self.stale += 1
            self._remove_quietly(path)
            return None
        if entry["digest"] != entry_digest(entry):
            # Valid JSON, wrong content: a flipped byte the parser
            # cannot see.  Same treatment — never serve it.
            self.corrupt += 1
            self._quarantine(path)
            return None
        self.hits += 1
        if self.policy == "on":
            # Refresh recency so size-pressure eviction is LRU: an entry
            # read often stays, however long ago it was written.
            try:
                os.utime(path, None)
            except OSError:
                pass
        return entry["payload"]

    def store(
        self, kind: str, material: Dict[str, Any], payload: Dict[str, Any]
    ) -> bool:
        """Write ``payload`` under ``material``'s key; atomic, race-safe."""
        if self.policy in ("off", "readonly"):
            return False
        key = canonical_key(material)
        path = self._path(kind, key)
        entry = {
            "schema": SCHEMA_VERSION,
            "kind": kind,
            "key": key,
            "key_material": material,
            "created": time.time(),
            "payload": payload,
        }
        entry["digest"] = entry_digest(entry)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with self._locked(exclusive=False):
            fd, tmp = tempfile.mkstemp(
                dir=os.path.dirname(path), suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w") as handle:
                    json.dump(entry, handle, sort_keys=True)
                os.replace(tmp, path)
            except OSError:
                self._remove_quietly(tmp)
                return False
        self.stores += 1
        return True

    @staticmethod
    def _remove_quietly(path: str) -> None:
        try:
            os.remove(path)
        except OSError:
            pass

    def _quarantine(self, path: str) -> None:
        """Move a corrupt entry to ``<root>/quarantine/`` (flat, named
        by its original basename).  Quarantined files are evidence — an
        operator can diff them against the recomputed entry — and their
        on-disk count is the *persistent* corruption counter
        ``repro cache stats`` reports across processes."""
        try:
            qdir = self._quarantine_dir()
            os.makedirs(qdir, exist_ok=True)
            os.replace(path, os.path.join(qdir, os.path.basename(path)))
            self.quarantined += 1
        except OSError:
            # Can't preserve it (cross-device, permissions): removal
            # still self-heals, we just lose the evidence.
            self._remove_quietly(path)

    # -- maintenance -----------------------------------------------------------

    def _entries(self) -> Iterator[Tuple[str, str]]:
        """Yield (kind, path) for every stored entry."""
        objects = self._objects_dir()
        if not os.path.isdir(objects):
            return
        for kind in sorted(os.listdir(objects)):
            kind_dir = os.path.join(objects, kind)
            if not os.path.isdir(kind_dir):
                continue
            for shard in sorted(os.listdir(kind_dir)):
                shard_dir = os.path.join(kind_dir, shard)
                if not os.path.isdir(shard_dir):
                    continue
                for name in sorted(os.listdir(shard_dir)):
                    if name.endswith(".json"):
                        yield kind, os.path.join(shard_dir, name)

    def stats(self) -> Dict[str, Any]:
        """Session counters plus a disk inventory per artifact kind.

        Machine-readable by design (``repro cache stats --format json``
        and the job server's ``/v1/stats`` embed it verbatim): counters
        the load-test harness asserts on live here, never in rendered
        text."""
        disk: Dict[str, Dict[str, Any]] = {}
        shards: Dict[str, set] = {}
        for kind, path in self._entries():
            slot = disk.setdefault(kind, {"entries": 0, "bytes": 0})
            slot["entries"] += 1
            shards.setdefault(kind, set()).add(
                os.path.basename(os.path.dirname(path))
            )
            try:
                slot["bytes"] += os.path.getsize(path)
            except OSError:
                pass
        for kind, slot in disk.items():
            slot["shards"] = len(shards.get(kind, ()))
        session = {
            "hits": self.hits,
            "misses": self.misses,
            "stale": self.stale,
            "stores": self.stores,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
            "quarantined": self.quarantined,
        }
        quarantine = {"entries": 0, "bytes": 0}
        qdir = self._quarantine_dir()
        if os.path.isdir(qdir):
            for name in sorted(os.listdir(qdir)):
                qpath = os.path.join(qdir, name)
                if not os.path.isfile(qpath):
                    continue
                quarantine["entries"] += 1
                try:
                    quarantine["bytes"] += os.path.getsize(qpath)
                except OSError:
                    pass
        consulted = self.hits + self.misses
        return {
            "root": self.root,
            "policy": self.policy,
            "session": session,
            "hit_ratio": (self.hits / consulted) if consulted else 0.0,
            "disk": disk,
            "quarantine": quarantine,
            "entries": sum(s["entries"] for s in disk.values()),
            "bytes": sum(s["bytes"] for s in disk.values()),
        }

    def gc(
        self,
        max_age_days: Optional[float] = None,
        max_bytes: Optional[int] = None,
        grace_seconds: float = 0.0,
    ) -> Dict[str, int]:
        """Collect garbage: stale-schema entries always, then entries
        older than ``max_age_days``, then least-recently-*used* first
        (reads refresh recency) until the store fits in ``max_bytes``.
        Returns removal/keep counts.

        Runs under the exclusive store lock, so no writer is mid-replace
        while entries are deleted.  Entries written within the last
        ``grace_seconds`` are immune to age and size pressure (never to a
        schema mismatch): a concurrent process that just stored an
        artifact is guaranteed to read it back, however aggressive the
        eviction policy.  Pass 0 (the default) for the one-shot CLI
        behaviour; long-running multi-tenant services should keep a
        window at least as long as one job.
        """
        now = time.time()
        survivors = []  # (last_used, size, path)
        removed = 0
        graced = 0
        with self._locked(exclusive=True):
            for _kind, path in self._entries():
                try:
                    with open(path) as handle:
                        entry = json.load(handle)
                    created = float(entry.get("created", 0.0))
                    schema = entry.get("schema")
                except (OSError, json.JSONDecodeError, ValueError):
                    self._remove_quietly(path)
                    removed += 1
                    continue
                if schema != SCHEMA_VERSION:
                    self._remove_quietly(path)
                    removed += 1
                    continue
                try:
                    stat = os.stat(path)
                    size, last_used = stat.st_size, stat.st_mtime
                except OSError:
                    size, last_used = 0, created
                if grace_seconds > 0 and now - created < grace_seconds:
                    # Generation guard: too young to evict, but also
                    # exempt from the size budget below — a just-written
                    # entry never counts against older survivors.
                    graced += 1
                    continue
                if (
                    max_age_days is not None
                    and now - created > max_age_days * 86400.0
                ):
                    self._remove_quietly(path)
                    removed += 1
                    continue
                survivors.append((last_used, size, path))
            if max_bytes is not None:
                survivors.sort()  # least recently used first
                total = sum(size for _u, size, _p in survivors)
                while survivors and total > max_bytes:
                    _last_used, size, path = survivors.pop(0)
                    self._remove_quietly(path)
                    total -= size
                    removed += 1
        self.evictions += removed
        return {"removed": removed, "kept": len(survivors) + graced}

    def clear(self) -> int:
        """Delete every stored artifact (and the quarantine — clearing
        the store is the operator saying "start over"); returns the
        number of live entries removed."""
        with self._locked(exclusive=True):
            count = sum(1 for _ in self._entries())
            objects = self._objects_dir()
            if os.path.isdir(objects):
                shutil.rmtree(objects, ignore_errors=True)
            qdir = self._quarantine_dir()
            if os.path.isdir(qdir):
                shutil.rmtree(qdir, ignore_errors=True)
        self.evictions += count
        return count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<artifact cache {self.root} [{self.policy}]: "
            f"{self.hits} hit(s), {self.misses} miss(es), {self.stale} stale>"
        )
