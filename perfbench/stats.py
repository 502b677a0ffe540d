"""The benchmark's own statistics: percentiles, geomean, error accounting.

Kept free of ``repro`` imports so ``test_stats.py`` exercises it alone.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 50.0)

#: A reported percentile must have at least this many samples beyond it.
MIN_BEYOND = 10

#: Samples per window of :func:`windowed_tail` (p95 has ten beyond it).
TAIL_WINDOW = 200


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0 <= q <= 100)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def harrell_davis(values: Sequence[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile (0 < q < 100):
    every order statistic weighted by the Beta(p(n+1), (1-p)(n+1)) mass
    over its rank interval.  On a few dozen unlike samples (one per
    compiled cell) it is far steadier than the one or two order
    statistics :func:`percentile` reads."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    n = len(ordered)
    p = q / 100.0
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 16  # midpoint-rule points per rank interval
    weights = []
    for i in range(n):
        mass = 0.0
        for k in range(steps):
            t = (i + (k + 0.5) / steps) / n
            mass += math.exp(log_norm + (a - 1.0) * math.log(t)
                             + (b - 1.0) * math.log1p(-t))
        weights.append(mass)
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the ``q``-th percentile rank."""
    return n - math.ceil(q / 100.0 * n - 1e-9)


def tail_percentile(n: int) -> Optional[float]:
    """Highest percentile of :data:`TAIL_LADDER` with at least
    :data:`MIN_BEYOND` of ``n`` samples beyond it, or None."""
    for q in TAIL_LADDER:
        if samples_beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def windowed_tail(values: Sequence[float]) -> Tuple[float, Optional[float], int]:
    """Median over consecutive windows of about :data:`TAIL_WINDOW`
    samples (one window below two windows' worth) of each window's
    :func:`tail_percentile` (the median when none qualifies), estimated
    by :func:`harrell_davis`, so one
    stalled stretch of a run cannot set its tail.  Returns (value,
    percentile, window count)."""
    k = max(1, len(values) // TAIL_WINDOW)
    edges = [round(i * len(values) / k) for i in range(k + 1)]
    q = tail_percentile(edges[1] - edges[0])
    tails = [harrell_davis(values[lo:hi], q if q is not None else 50.0)
             for lo, hi in zip(edges, edges[1:])]
    return statistics.median(tails), q, k


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    if not values or any(v <= 0 for v in values):
        raise ValueError("geomean needs positive samples")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, quartiles as ``statistics.quantiles(n=4)``."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def sum_of_medians(samples: Dict[str, List[float]]) -> float:
    """Σ over inputs of each input's median time: one pass over the input
    set with per-input noise damped by the repeats."""
    return sum(statistics.median(times) for times in samples.values())


class Tally:
    """Attempted/failed operation accounting behind ``error_rate``.

    An operation fails at most once however many of its checks fail; the
    reasons are all kept for the report.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self._failed: Dict[str, List[str]] = {}

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, op: str, reason: str) -> None:
        self._failed.setdefault(op, []).append(reason)

    @property
    def failed(self) -> int:
        return len(self._failed)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def reasons(self) -> Dict[str, List[str]]:
        return {op: list(r) for op, r in sorted(self._failed.items())}
