"""Shared machinery for the figure/table benches.

Prepared programs and scheme outcomes come from the execution engine's
content-addressed on-disk artifact cache (``$REPRO_CACHE_DIR`` or
``~/.cache/repro``), so warm reruns of any bench skip the interpreter,
the points-to solver, and the partitioners.  The ``lru_cache`` layer on
top only serves repeated in-process lookups; it holds no state a pool
worker could observe — workers in a parallel sweep rehydrate from disk,
never from another process's dicts.  Set ``REPRO_BENCH_CACHE=off`` to
force every run cold.
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import List, Tuple

from repro.bench import get as get_benchmark, names as bench_names
from repro.evalmodel import arithmetic_mean, bar_chart, format_table
from repro.exec import ArtifactCache, RunConfig
from repro.machine import two_cluster_machine
from repro.pipeline import Pipeline, PreparedProgram
from repro.pipeline.schemes import SchemeOutcome

#: The benchmark set used for the full-suite figures (Figs. 2, 7, 8, 10).
FULL_SUITE: Tuple[str, ...] = tuple(bench_names())

#: The benchmarks small enough for the exhaustive search of Figure 9.
FIG9_SUITE: Tuple[str, ...] = ("rawcaudio", "rawdaudio")

LATENCIES: Tuple[int, ...] = (1, 5, 10)

#: Engine configuration for every harness lookup.  Policy and root come
#: from the environment so CI can pin a per-run cache directory.  One
#: rung, one attempt: a failing scheme raises rather than reporting (and
#: caching) a lower rung's cycles under the requested scheme's name.
BENCH_CONFIG = RunConfig(
    cache=os.environ.get("REPRO_BENCH_CACHE", "on"),
    cache_dir=os.environ.get("REPRO_CACHE_DIR") or None,
    fallback=False,
    retries=0,
)


def artifact_cache() -> ArtifactCache:
    """One artifact-cache handle per call — cheap, and no mutable handle
    is ever shared across pool workers."""
    return ArtifactCache(BENCH_CONFIG.cache_dir, BENCH_CONFIG.cache)


@lru_cache(maxsize=None)
def prepared(name: str, pointsto_tier: str = "andersen") -> PreparedProgram:
    bench = get_benchmark(name)
    config = BENCH_CONFIG.replace(pointsto_tier=pointsto_tier)
    return Pipeline(config, cache=artifact_cache()).prepare(
        bench.source, bench.name
    )


@lru_cache(maxsize=None)
def outcome(
    name: str, scheme: str, latency: int, pointsto_tier: str = "andersen"
) -> SchemeOutcome:
    config = BENCH_CONFIG.replace(
        scheme=scheme, latency=latency, pointsto_tier=pointsto_tier
    )
    return Pipeline(config, cache=artifact_cache()).run(
        prepared(name, pointsto_tier)
    )


@lru_cache(maxsize=None)
def resilient(name: str, scheme: str, latency: int):
    """Scheme outcome with fresh per-phase wall clocks (``.timings``,
    e.g. Section 4.5 compile-time numbers) rather than just the result.
    Deliberately never served from the artifact cache: a rehydrated
    outcome has no fresh phase timings."""
    pipe = Pipeline(
        RunConfig(retries=0, fallback=False, validate=False, cache="off"),
        machine=two_cluster_machine(move_latency=latency),
    )
    return pipe.run(prepared(name), scheme)


#: In-process memo tables; cleared by :func:`clear_caches` (wired into
#: ``conftest.py``) so repeated in-process pytest sessions re-read the
#: artifact store.  Never visible to pool workers — cross-process reuse
#: goes through the on-disk artifact cache only.
_CACHES = [prepared, outcome, resilient]


def clear_caches() -> None:
    """Drop every in-process memo (the on-disk artifacts remain)."""
    for fn in _CACHES:
        fn.cache_clear()


def relative_performance(name: str, scheme: str, latency: int) -> float:
    """Cycles(unified) / cycles(scheme): 1.0 = unified-memory parity."""
    base = outcome(name, "unified", latency).cycles
    cycles = outcome(name, scheme, latency).cycles
    return base / cycles if cycles else 0.0


def cycle_increase_pct(name: str, scheme: str, latency: int) -> float:
    """Percentage increase in cycles over the unified model (Figure 2)."""
    base = outcome(name, "unified", latency).cycles
    cycles = outcome(name, scheme, latency).cycles
    return 100.0 * (cycles - base) / base if base else 0.0


def move_increase_pct(name: str, scheme: str, latency: int) -> float:
    """Percentage increase in dynamic intercluster moves (Figure 10)."""
    base = outcome(name, "unified", latency).dynamic_moves
    moves = outcome(name, scheme, latency).dynamic_moves
    if base == 0:
        return 0.0 if moves == 0 else 100.0
    return 100.0 * (moves - base) / base


def performance_figure(latency: int, suite=FULL_SUITE) -> str:
    """Render one of Figs. 7 / 8(a) / 8(b)."""
    rows: List[List[object]] = []
    gdp_vals: List[float] = []
    pmax_vals: List[float] = []
    for name in suite:
        g = relative_performance(name, "gdp", latency)
        p = relative_performance(name, "profilemax", latency)
        rows.append([name, g, p])
        gdp_vals.append(g)
        pmax_vals.append(p)
    rows.append(["average", arithmetic_mean(gdp_vals), arithmetic_mean(pmax_vals)])
    naive_avg = arithmetic_mean(
        [relative_performance(n, "naive", latency) for n in suite]
    )
    rows.append(["average(naive)", naive_avg, ""])
    table = format_table(["benchmark", "GDP", "ProfileMax"], rows)
    chart = bar_chart(
        list(suite),
        {
            "GDP ": [relative_performance(n, "gdp", latency) for n in suite],
            "PMax": [relative_performance(n, "profilemax", latency) for n in suite],
        },
        baseline=1.0,
    )
    return (
        f"Relative performance vs unified memory, {latency}-cycle move "
        f"latency (higher is better, 1.0 = unified parity)\n\n{table}\n\n{chart}"
    )
