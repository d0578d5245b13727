"""Unit tests for metrics recorders and the RNG registry."""

import pytest

from repro.sim.metrics import (
    LatencyRecorder,
    TimeSeries,
    mean,
    percentile,
)
from repro.sim.rng import RngRegistry


def test_mean_empty_and_values():
    assert mean([]) == 0.0
    assert mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0) == 1
    assert percentile(values, 50) == pytest.approx(50, abs=1)
    assert percentile(values, 100) == 100


def test_percentile_bounds_checked():
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_latency_recorder_basics():
    rec = LatencyRecorder()
    rec.record(0.0, 5.0, tag="a")
    rec.record(10.0, 12.0, tag="b")
    assert rec.count() == 2
    assert rec.mean_latency() == pytest.approx(3.5)
    assert rec.latencies(tag="a") == [5.0]


def test_latency_recorder_rejects_time_travel():
    rec = LatencyRecorder()
    with pytest.raises(ValueError):
        rec.record(5.0, 4.0)


def test_latency_since_filter():
    rec = LatencyRecorder()
    rec.record(0.0, 1.0)
    rec.record(0.0, 100.0)
    assert rec.count(since_ms=50.0) == 1


def test_fraction_over_threshold():
    rec = LatencyRecorder()
    for latency in (1.0, 2.0, 20.0, 30.0):
        rec.record(0.0, latency)
    assert rec.fraction_over(10.0) == pytest.approx(0.5)
    assert LatencyRecorder().fraction_over(10.0) == 0.0


def test_windowed_mean_buckets():
    rec = LatencyRecorder()
    rec.record(0.0, 1.0)    # latency 1, ends at 1
    rec.record(0.0, 9.0)    # latency 9, ends at 9
    rec.record(10.0, 15.0)  # latency 5, ends at 15
    series = rec.windowed_mean(window_ms=10.0, horizon_ms=20.0)
    assert series.points[0][1] == pytest.approx(5.0)
    assert series.points[1][1] == pytest.approx(5.0)


def test_throughput_rates():
    rec = LatencyRecorder()
    for t in (1.0, 2.0, 3.0, 11.0):
        rec.record(t, t)
    assert rec.count_between(0.0, 10.0) == 3
    assert rec.count_between(5.0, 5.0) == 0
    assert rec.windowed_rate(10.0, 10.0).values() == [pytest.approx(300.0)]


def test_throughput_windowed_series():
    rec = LatencyRecorder()
    for t in (1.0, 2.0, 12.0):
        rec.record(t, t)
    series = rec.windowed_rate(window_ms=10.0, horizon_ms=20.0)
    assert [v for _t, v in series.points] == [pytest.approx(200.0), pytest.approx(100.0)]


def test_time_series_helpers():
    series = TimeSeries()
    series.add(0.0, 1.0)
    series.add(10.0, 3.0)
    assert series.mean_value() == pytest.approx(2.0)
    assert series.max_value() == 3.0
    assert series.values() == [1.0, 3.0]


def test_latency_recorder_rejects_out_of_order_completions():
    # A simulator records at sim.now, so end times never decrease; the
    # bisect-located windows rely on it.
    rec = LatencyRecorder()
    rec.record(0.0, 5.0)
    rec.record(1.0, 5.0)  # equal end times are fine
    with pytest.raises(ValueError):
        rec.record(2.0, 4.0)
    assert len(rec) == 2 and rec.count_between(0.0, 10.0) == 2


def test_monotonic_windowed_exclude_tag_matches_scan():
    # The bucketing pass stops at the first record past the horizon and
    # skips the excluded tag.
    rec = LatencyRecorder()
    rec.record(0.0, 5.0, tag="ok")
    rec.record(2.0, 8.0, tag="ok")
    rec.record(5.0, 15.0, tag="ok")
    rec.record(20.0, 25.0, tag="bad")
    counts = rec.windowed_count(10.0, 20.0, exclude_tag="bad")
    assert [v for _t, v in counts.points] == [
        pytest.approx(200.0),
        pytest.approx(100.0),
    ]
    assert sorted(rec.latencies(since_ms=10.0)) == [5.0, 10.0]


def test_rng_streams_are_independent_and_stable():
    reg = RngRegistry(42)
    a1 = [reg.stream("a").random() for _ in range(3)]
    reg2 = RngRegistry(42)
    b = reg2.stream("b")  # created before "a": order must not matter
    _ = b.random()
    a2 = [reg2.stream("a").random() for _ in range(3)]
    assert a1 == a2


def test_rng_different_seeds_differ():
    assert RngRegistry(1).stream("x").random() != RngRegistry(2).stream("x").random()
