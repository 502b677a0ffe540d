"""Tests for the benchmark's own statistics and span accounting.

    python3 -m pytest perfbench/test_stats.py -q
"""

import gc
import math
import os
import statistics
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import host  # noqa: E402
from spans import Tracer  # noqa: E402
from stats import (  # noqa: E402
    TAIL_WINDOW,
    Tally,
    geomean,
    harrell_davis,
    percentile,
    quartile_spread,
    samples_beyond,
    sum_of_medians,
    tail_percentile,
    windowed_tail,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# -- percentile rule -----------------------------------------------------------


@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0),
    (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert samples_beyond(n, expected) >= 10


def test_samples_beyond_counts_ranks_above_the_percentile():
    assert samples_beyond(1000, 99.0) == 10
    assert samples_beyond(20, 50.0) == 10
    assert samples_beyond(10, 50.0) == 5


def test_percentile_interpolates_linearly():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == 2.5
    assert percentile(list(range(101)), 99) == pytest.approx(99.0)
    with pytest.raises(ValueError):
        percentile([], 50)


def test_windowed_tail_is_the_median_of_window_tails():
    quiet = [float(i % 100) for i in range(TAIL_WINDOW)]
    stalled = quiet[:-10] + [1e6] * 10
    value, q, windows = windowed_tail(quiet + stalled + quiet)
    assert (q, windows) == (95.0, 3)
    assert value == pytest.approx(harrell_davis(quiet, 95.0))


def test_windowed_tail_of_a_short_run_is_the_plain_rule():
    values = [float(v) for v in range(2 * TAIL_WINDOW - 1)]
    assert windowed_tail(values) == (harrell_davis(values, 95.0), 95.0, 1)
    assert windowed_tail([1.0, 2.0, 3.0]) == (pytest.approx(2.0), None, 1)


def test_harrell_davis_matches_the_percentile_it_estimates():
    assert harrell_davis([7.0], 50) == pytest.approx(7.0)
    assert harrell_davis([1.0, 3.0], 50) == pytest.approx(2.0)
    assert harrell_davis([5.0, 1.0, 4.0, 2.0, 3.0], 50) == pytest.approx(3.0)
    assert harrell_davis([2.5] * 9, 50) == pytest.approx(2.5)
    uniform = [float(v) for v in range(1001)]
    assert harrell_davis(uniform, 50) == pytest.approx(500.0, abs=0.5)
    assert harrell_davis(uniform, 90) == pytest.approx(900.0, abs=1.0)
    with pytest.raises(ValueError):
        harrell_davis([], 50)


def test_harrell_davis_median_moves_less_than_the_plain_median():
    # Twenty unlike cells with a gap in the middle: one cell crossing it
    # swings the plain median by half the gap.
    before = [1.0 + 0.01 * i for i in range(10)] + [2.0 + 0.01 * i
                                                    for i in range(10)]
    after = sorted(before)
    after[10] = 1.095
    plain = abs(statistics.median(after) - statistics.median(before))
    smooth = abs(harrell_davis(after, 50) - harrell_davis(before, 50))
    assert smooth < plain / 2


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 9.7, 10.6]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx((q3 - q1) / median)


def test_speed_scale_leaves_the_cycle_collector_as_it_found_it():
    assert host.speed_scale() > 0 and gc.isenabled()
    gc.disable()
    try:
        host.speed_scale()
        assert not gc.isenabled()
    finally:
        gc.enable()


# -- geomean and pass time -----------------------------------------------------


def test_geomean():
    assert geomean([1.0, 4.0]) == pytest.approx(2.0)
    assert geomean([0.5, 2.0, 1.0]) == pytest.approx(1.0)
    assert geomean(iter([3.0])) == pytest.approx(3.0)
    for bad in ([], [1.0, 0.0], [-1.0]):
        with pytest.raises(ValueError):
            geomean(bad)


def test_sum_of_medians():
    assert sum_of_medians({"a": [1.0, 3.0, 2.0], "b": [10.0]}) == 12.0


# -- span self time ------------------------------------------------------------


def _nested_tracer():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.enabled = True

    def leaf(seconds):
        clock.advance(seconds)

    def middle():
        clock.advance(1.0)
        tracer.span("leaf", leaf, 2.0)
        tracer.span("leaf", leaf, 3.0)

    def outer():
        clock.advance(0.5)
        tracer.span("middle", middle)
        tracer.span("leaf", leaf, 4.0)

    tracer.span("outer", outer)
    return tracer


def test_self_time_subtracts_direct_children_only():
    tracer = _nested_tracer()
    assert tracer.self_seconds("leaf") == pytest.approx(9.0)
    assert tracer.calls("leaf") == 3
    assert tracer.self_seconds("middle") == pytest.approx(1.0)
    assert tracer.self_seconds("outer") == pytest.approx(0.5)
    assert tracer.spans["outer"][1] == pytest.approx(10.5)  # inclusive


def test_self_times_partition_the_root_span():
    tracer = _nested_tracer()
    assert tracer.total_self_seconds() == pytest.approx(10.5)


def test_recursive_spans_of_one_name_do_not_double_count():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.enabled = True

    def rec(depth):
        clock.advance(1.0)
        if depth:
            tracer.span("rec", rec, depth - 1)

    tracer.span("rec", rec, 2)
    assert tracer.calls("rec") == 3
    assert tracer.self_seconds("rec") == pytest.approx(3.0)
    assert tracer.total_self_seconds() == pytest.approx(3.0)


def test_disabled_tracer_records_nothing():
    tracer = Tracer()
    assert tracer.span("x", lambda: 7) == 7
    tracer.count("n", 3)
    assert tracer.spans == {} and tracer.counters == {}


class _Target:
    def method(self, x):
        return x + 1

    @classmethod
    def build(cls, x):
        return (cls, x)


def test_wrap_spans_methods_and_classmethods():
    tracer = Tracer()
    tracer.wrap(_Target, "method", "t.method",
                after=lambda args, result: tracer.count("t.sum", result))
    tracer.wrap(_Target, "build", "t.build")
    tracer.enabled = True
    assert _Target().method(1) == 2
    assert _Target.build(5) == (_Target, 5)
    assert tracer.calls("t.method") == 1 and tracer.calls("t.build") == 1
    assert tracer.counters["t.sum"] == 2
    assert isinstance(_Target.__dict__["build"], classmethod)
    tracer.enabled = False
    assert _Target().method(1) == 2 and tracer.calls("t.method") == 1


# -- error accounting ----------------------------------------------------------


def test_error_rate_counts_each_failed_operation_once():
    tally = Tally()
    tally.attempt(4)
    tally.fail("a", "cycles mismatch")
    tally.fail("a", "trace mismatch")
    tally.fail("b", "job failed")
    assert tally.failed == 2
    assert tally.error_rate == pytest.approx(0.5)
    assert tally.reasons() == {
        "a": ["cycles mismatch", "trace mismatch"], "b": ["job failed"],
    }


def test_error_rate_of_nothing_attempted_is_zero():
    tally = Tally()
    assert tally.error_rate == 0.0 and tally.failed == 0
    assert not math.isnan(tally.error_rate)
