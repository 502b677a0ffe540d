"""Parallel scheme/bench execution engine over the artifact cache.

The paper's evaluation is an embarrassingly parallel sweep — benchmarks
x schemes x intercluster latencies (Table 1, Figs 7-10).  The engine
fans those cells out over a :class:`~concurrent.futures.ProcessPoolExecutor`
(``--jobs N``, default ``os.cpu_count()``), runs each cell under the
resilience layer's retry/fallback ladder so one failing cell degrades
without killing the sweep, and merges the per-cell
:class:`~repro.resilience.report.RunReport`\\ s into one sweep-level
:class:`SweepResult` with wall-clock speedup and cache-hit columns.

Workers never share in-memory state: every worker rehydrates prepared
programs and outcomes from the content-addressed on-disk
:class:`~repro.exec.cache.ArtifactCache`, so a warm rerun of the whole
sweep skips the interpreter, the points-to solver, and the partitioners
entirely.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..resilience.report import MASK, scrub

# The artifact (de)serialisers live here as module attributes: the
# driver calls them through this module, which is where perfbench's
# layer probes wrap them.
from .artifacts import (  # noqa: F401
    outcome_from_payload,
    outcome_to_payload,
    prepared_from_payload,
    prepared_to_payload,
    rhop_from_payload,
    rhop_to_payload,
)
from .artifacts import outcome_key_material, prepared_key_material
from .cache import ArtifactCache, canonical_key
from .runconfig import SCHEMA_VERSION, RunConfig

#: Default scheme set of a sweep (Table 1 order, unified first so the
#: relative-performance column always has its baseline).
SWEEP_SCHEMES = ("unified", "gdp", "profilemax", "naive")


#: Prepared-artifact key -> the IR hash its payload carries, remembered
#: in process so the warm probe reads one artifact, the outcome.  The key
#: is content-addressed (source, name, tier, profile, schema), so an
#: entry cannot go stale; only :func:`lookup_cached_outcome` reads it.
_IR_HASHES: Dict[str, str] = {}


def _prepared_material(
    source: str, name: str, config: RunConfig
) -> Dict[str, Any]:
    return prepared_key_material(
        source, name, config.pointsto_tier, profile=config.profile
    )


def lookup_cached_outcome(
    source: str, name: str, config: RunConfig
) -> Optional[Dict[str, Any]]:
    """The one warm probe: the digest-verified outcome payload for one
    (source, config) cell if it is already on disk, else None.

    :func:`run_cell` answers a hit whole, and the job server calls it at
    admission to tag a submission as warm and carry the payload to its
    worker; nothing is computed, nothing is stored.  It reads through a
    handle of its own under the config's cache policy, so ``refresh``
    misses, ``on`` refreshes the entry's recency and ``readonly`` only
    reads.  The outcome key's IR hash comes from the prepared artifact,
    which is read only the first time this process meets its key; after
    a quarantine or eviction the outcome read just misses.
    """
    if not config.cacheable_results:
        return None
    cache = ArtifactCache(config.cache_dir, config.cache)
    material = _prepared_material(source, name, config)
    key = canonical_key(material)
    ir_hash = _IR_HASHES.get(key)
    if ir_hash is None:
        prepared = cache.load("prepared", material)
        if prepared is None:
            return None
        ir_hash = _IR_HASHES[key] = prepared["ir_hash"]
    return cache.load("outcome", outcome_key_material(
        ir_hash, config.build_machine(), config.pointsto_tier,
        config.scheme, config.seed, config.profile,
    ))


# ---------------------------------------------------------------------------
# The pool worker
# ---------------------------------------------------------------------------


def _bench_source(name: str, source: Optional[str]) -> Tuple[str, str]:
    if source is not None:
        return name, source
    from ..bench import get as get_benchmark

    bench = get_benchmark(name)
    return bench.name, bench.source


def run_cell(
    payload: Dict[str, Any], cache: Optional[ArtifactCache] = None
) -> Dict[str, Any]:
    """Execute one sweep cell; never raises (a failed cell reports itself).

    The payload is plain JSON (picklable across the pool): the cell's
    RunConfig dict plus ``bench`` and optionally ``source`` for programs
    not in the registry.  In-process callers (the job server's threaded
    workers) may pass a shared ``cache`` handle for the pipeline's reads
    and stores, so their hit/miss telemetry accumulates in one place;
    pool workers leave it None and build their own.

    A warm cell is answered by its outcome payload alone: the payload's
    ``outcome``, which :func:`lookup_cached_outcome` already read and
    verified, or else that probe's answer.  It records a prepared hit,
    an outcome hit and a one-rung run, and never compiles or rehydrates.
    Any other cell the pipeline prepares and runs under the resilience
    ladder.  The cell's ``status`` is the run report's
    :meth:`~repro.resilience.RunReport.outcome_state`.
    """
    from ..pipeline import Pipeline
    from ..resilience import LadderExhausted, RunReport

    config = RunConfig.from_dict(payload["config"])
    started = time.perf_counter()
    cell: Dict[str, Any] = {
        "bench": payload["bench"],
        "scheme": config.scheme,
        "latency": config.latency,
        "pointsto_tier": config.pointsto_tier,
        "seed": config.seed,
        "machine": config.machine,
    }
    report = RunReport()
    try:
        name, source = _bench_source(payload["bench"], payload.get("source"))
        hit = payload.get("outcome")
        if hit is None:
            hit = lookup_cached_outcome(source, name, config)
        if hit is not None:
            report.record_cache("prepared", "hit")
            report.record_cache("outcome", "hit")
            report.record_cached_run(config.scheme, hit["scheme"])
            ran_as, roofline = hit["scheme"], hit.get("roofline")
            cycles = hit["eval"]["cycles"]
            moves = hit["eval"]["dynamic_moves"]
        else:
            pipe = Pipeline(config, cache=cache)
            prepared = pipe.prepare(source, name, report)
            if (config.cacheable_results
                    and prepared.profile_mode == config.profile):
                # The prepared artifact now holds this IR hash.
                _IR_HASHES[canonical_key(
                    _prepared_material(source, name, config)
                )] = prepared.fingerprint()
            outcome = pipe.run(prepared, report=report)
            ran_as, roofline = outcome.scheme, outcome.roofline
            cycles, moves = outcome.cycles, outcome.dynamic_moves
        if roofline is not None:
            report.record_roofline(ran_as, roofline)
        cell.update(
            status=report.outcome_state(),
            ran_as=ran_as,
            cycles=cycles,
            dynamic_moves=moves,
            roofline_ratio=(roofline or {}).get("ratio"),
            error=None,
        )
    except Exception as exc:  # noqa: BLE001 - a cell must never kill the sweep
        error = (
            str(exc) if isinstance(exc, LadderExhausted)
            else f"{type(exc).__name__}: {exc}"
        )
        cell.update(
            status="failed", ran_as=None, cycles=None, dynamic_moves=None,
            roofline_ratio=None, error=error,
        )
    cache_events = {"prepared": "off", "outcome": "off"}
    if config.cache_enabled and not config.cacheable_results:
        cache_events["outcome"] = "skip"
    for event in report.cache_events():
        cache_events[event["cache"]] = event["status"]
    full = report.to_dict()
    cell.update(
        cache=cache_events,
        seconds=time.perf_counter() - started,
        report=full,
        report_deterministic=scrub(full),
    )
    return cell


def cell_summary(cell: Dict[str, Any]) -> Dict[str, Any]:
    """The deterministic projection of one engine cell (what a job
    reports as its result, and what byte-identity checks compare)."""
    return {
        "bench": cell["bench"],
        "scheme": cell["scheme"],
        "latency": cell["latency"],
        "pointsto_tier": cell["pointsto_tier"],
        "seed": cell["seed"],
        "machine": cell["machine"],
        "status": cell["status"],
        "ran_as": cell["ran_as"],
        "cycles": cell["cycles"],
        "dynamic_moves": cell["dynamic_moves"],
        "roofline_ratio": cell.get("roofline_ratio"),
        "error": cell["error"],
    }


# ---------------------------------------------------------------------------
# Sweep-level result
# ---------------------------------------------------------------------------


def _cell_sort_key(cell: Dict[str, Any]) -> Tuple:
    return (
        cell["bench"], cell["scheme"], cell["latency"],
        cell["pointsto_tier"], cell["seed"],
    )


class SweepResult:
    """Merged result of one sweep: ordered cells + aggregate telemetry.

    ``to_dict(deterministic=True)`` keeps only the seed-determined
    results: each cell's :func:`cell_summary`, its cache statuses masked
    and its report through :func:`~repro.resilience.report.scrub`, under
    the config with its execution-only fields reset -- the form the
    ``--jobs 1`` vs ``--jobs 4`` byte-identity tests pin.
    """

    def __init__(
        self,
        cells: List[Dict[str, Any]],
        wall_seconds: float,
        jobs: int,
        config: RunConfig,
    ):
        self.cells = sorted(cells, key=_cell_sort_key)
        self.wall_seconds = wall_seconds
        self.jobs = jobs
        self.config = config

    # -- aggregates ------------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        counts = {"ok": 0, "degraded": 0, "failed": 0}
        for cell in self.cells:
            counts[cell["status"]] = counts.get(cell["status"], 0) + 1
        return counts

    def cell_seconds(self) -> float:
        """Sum of per-cell wall clocks — the serial-equivalent cost."""
        return sum(cell["seconds"] for cell in self.cells)

    def speedup(self) -> float:
        """Serial-equivalent seconds / sweep wall seconds."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.cell_seconds() / self.wall_seconds

    def cache_counts(self) -> Dict[str, Dict[str, int]]:
        totals: Dict[str, Dict[str, int]] = {}
        for cell in self.cells:
            for kind, status in cell["cache"].items():
                slot = totals.setdefault(kind, {})
                slot[status] = slot.get(status, 0) + 1
        return totals

    def cache_hit_ratio(self, kind: str = "outcome") -> float:
        """Hits / (hits + misses) for one artifact kind over the sweep
        (cells that never consulted the cache are excluded)."""
        counts = self.cache_counts().get(kind, {})
        hits = counts.get("hit", 0)
        misses = counts.get("miss", 0)
        if hits + misses == 0:
            return 0.0
        return hits / (hits + misses)

    def summary(self) -> Dict[str, Any]:
        reports = [cell["report"]["summary"] for cell in self.cells]
        return {
            "cells": len(self.cells),
            **self.counts(),
            "attempts": sum(r["attempts"] for r in reports),
            "faults": sum(r["faults"] for r in reports),
            "fallbacks": sum(r["fallbacks"] for r in reports),
        }

    # -- serialisation ---------------------------------------------------------

    def to_dict(self, deterministic: bool = False) -> Dict[str, Any]:
        if deterministic:
            return {
                "schema_version": SCHEMA_VERSION,
                "config": self.config.executed_by(
                    RunConfig(cache="off")
                ).to_dict(),
                "cells": [
                    dict(cell_summary(cell),
                         cache=dict.fromkeys(cell["cache"], MASK),
                         report=cell["report_deterministic"])
                    for cell in self.cells
                ],
                "summary": self.summary(),
            }
        return {
            "schema_version": SCHEMA_VERSION,
            "config": self.config.to_dict(),
            "jobs": self.jobs,
            "wall_seconds": self.wall_seconds,
            "cell_seconds": self.cell_seconds(),
            "speedup": self.speedup(),
            "cache": self.cache_counts(),
            "cells": self.cells,
            "summary": self.summary(),
        }

    def to_json(self, deterministic: bool = False) -> str:
        import json

        return json.dumps(
            self.to_dict(deterministic), indent=2, sort_keys=True
        )

    def render_table(self) -> str:
        """Human-readable sweep table with cache-hit and speedup columns."""
        from ..evalmodel import format_table

        baselines: Dict[Tuple, float] = {}
        for cell in self.cells:
            if cell["scheme"] == "unified" and cell["cycles"]:
                baselines[
                    (cell["bench"], cell["latency"], cell["pointsto_tier"])
                ] = cell["cycles"]
        rows = []
        for cell in self.cells:
            base = baselines.get(
                (cell["bench"], cell["latency"], cell["pointsto_tier"])
            )
            rel = (
                f"{base / cell['cycles']:.3f}"
                if base and cell["cycles"] else "-"
            )
            ratio = cell.get("roofline_ratio")
            rows.append([
                cell["bench"],
                cell["scheme"],
                cell["ran_as"] if cell["ran_as"] != cell["scheme"] else "",
                f"{cell['cycles']:.0f}" if cell["cycles"] else "-",
                rel,
                f"{ratio:.2f}" if ratio else "-",
                cell["status"],
                cell["cache"]["outcome"],
                f"{cell['seconds']:.2f}",
            ])
        table = format_table(
            ["benchmark", "scheme", "ran as", "cycles", "vs unified",
             "x-roofline", "status", "cache", "secs"],
            rows,
        )
        counts = self.cache_counts().get("outcome", {})
        footer = (
            f"{len(self.cells)} cell(s) in {self.wall_seconds:.2f}s wall "
            f"({self.cell_seconds():.2f}s serial-equivalent, "
            f"{self.speedup():.2f}x speedup, {self.jobs} job(s)); "
            f"outcome cache: {counts.get('hit', 0)} hit(s), "
            f"{counts.get('miss', 0)} miss(es)"
        )
        return f"{table}\n\n{footer}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        counts = self.counts()
        return (
            f"<sweep {len(self.cells)} cells: {counts['ok']} ok, "
            f"{counts['degraded']} degraded, {counts['failed']} failed, "
            f"{self.wall_seconds:.2f}s>"
        )


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------


class ParallelRunner:
    """Fans benchmark x scheme x latency x tier cells over a process pool.

    Example
    -------
    >>> from repro.exec import ParallelRunner, RunConfig
    >>> runner = ParallelRunner(RunConfig(jobs=4))
    >>> result = runner.sweep(benches=["rawcaudio"], schemes=["gdp"])
    """

    def __init__(self, config: Optional[RunConfig] = None):
        self.config = config or RunConfig()

    def cells(
        self,
        benches: Sequence[str],
        schemes: Iterable[str] = SWEEP_SCHEMES,
        latencies: Optional[Iterable[int]] = None,
        tiers: Optional[Iterable[str]] = None,
        sources: Optional[Dict[str, str]] = None,
    ) -> List[Dict[str, Any]]:
        """The cell payload list for a sweep (deduplicated, stable order)."""
        latencies = (
            [self.config.latency] if latencies is None else list(latencies)
        )
        tiers = (
            [self.config.pointsto_tier] if tiers is None else list(tiers)
        )
        payloads = []
        for bench in dict.fromkeys(benches):
            for tier in dict.fromkeys(tiers):
                for latency in dict.fromkeys(latencies):
                    for scheme in dict.fromkeys(schemes):
                        cfg = self.config.replace(
                            scheme=scheme, latency=latency,
                            pointsto_tier=tier,
                        )
                        payloads.append({
                            "bench": bench,
                            "source": (sources or {}).get(bench),
                            "config": cfg.to_dict(),
                        })
        return payloads

    def sweep(
        self,
        benches: Sequence[str],
        schemes: Iterable[str] = SWEEP_SCHEMES,
        latencies: Optional[Iterable[int]] = None,
        tiers: Optional[Iterable[str]] = None,
        sources: Optional[Dict[str, str]] = None,
        jobs: Optional[int] = None,
    ) -> SweepResult:
        """Run the whole sweep; one failing cell degrades, never kills.

        ``jobs=1`` runs every cell inline in this process (the serial
        baseline the determinism tests compare against); ``jobs>1`` uses
        a :class:`ProcessPoolExecutor` with that many workers.
        """
        payloads = self.cells(benches, schemes, latencies, tiers, sources)
        jobs = self.config.effective_jobs if jobs is None else jobs
        started = time.perf_counter()
        if jobs <= 1 or len(payloads) <= 1:
            results = [run_cell(payload) for payload in payloads]
            jobs = 1
        else:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(run_cell, payloads))
        wall = time.perf_counter() - started
        return SweepResult(results, wall, jobs, self.config)
