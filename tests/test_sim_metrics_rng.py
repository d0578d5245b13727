"""Unit tests for metrics recorders and the RNG registry."""

import math
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

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


@pytest.mark.parametrize("window_ms", [0.0, -1.0, math.nan])
@pytest.mark.parametrize(
    "query",
    [
        lambda rec, w: rec.windowed_rate(w, 100.0),
        lambda rec, w: rec.windowed_count(w, 100.0),
        lambda rec, w: rec.windowed_percentile(99.0, w, 100.0),
        lambda rec, w: rec.windowed_mean(w, 100.0),
    ],
    ids=["rate", "count", "percentile", "mean"],
)
@pytest.mark.parametrize("samples", [0, 3])
def test_windowed_series_reject_a_window_that_cannot_step(query, window_ms, samples):
    # A series steps start = min(start + window, horizon): a zero or
    # negative window never reaches the horizon (the point list grows
    # forever on an empty recorder), and bucketing divides by it.
    rec = LatencyRecorder()
    for i in range(samples):
        rec.record(float(i), float(i) + 1.0)
    with pytest.raises(ValueError, match="window"):
        query(rec, window_ms)


@pytest.mark.parametrize("horizon_ms", [math.inf, math.nan])
@pytest.mark.parametrize(
    "query",
    [
        lambda rec, h: rec.windowed_rate(10.0, h),
        lambda rec, h: rec.windowed_count(10.0, h),
        lambda rec, h: rec.windowed_percentile(99.0, 10.0, h),
        lambda rec, h: rec.windowed_mean(10.0, h),
    ],
    ids=["rate", "count", "percentile", "mean"],
)
@pytest.mark.parametrize("samples", [0, 3])
def test_windowed_series_reject_a_horizon_they_cannot_reach(query, horizon_ms, samples):
    # A series steps while start < horizon: an infinite horizon is never
    # reached (the point list grows forever), and a NaN one yields an
    # empty series that reads as "nothing completed".
    rec = LatencyRecorder()
    for i in range(samples):
        rec.record(float(i), float(i) + 1.0)
    with pytest.raises(ValueError, match="horizon"):
        query(rec, horizon_ms)


# ----------------------------------------------------------------------
# LatencyRecorder vs a reference model
# ----------------------------------------------------------------------
class _ReferenceLog:
    """The completion log as a plain list of ``(start, end, tag)`` triples.

    Every answer is re-derived from the triples at query time: a latency
    is ``end - start``, a window is a scan, and once the stream reaches
    ``sample_threshold`` the latency queries read an Algorithm R
    reservoir replayed over the whole stream with ``Random(0)``.
    """

    def __init__(self, stream, sample_threshold, reservoir_size):
        self.stream = self.view = stream
        self.sampled = len(stream) >= sample_threshold
        if self.sampled:
            rng = Random(0)
            self.view = []
            for i, triple in enumerate(stream):
                if len(self.view) < reservoir_size:
                    self.view.append(triple)
                else:
                    j = rng.randrange(i + 1)
                    if j < reservoir_size:
                        self.view[j] = triple

    @staticmethod
    def _mean(values):
        return sum(values) / len(values) if values else 0.0

    def latencies(self, since, tag=None):
        return [
            e - s for s, e, t in self.view if e >= since and (tag is None or t == tag)
        ]

    def latencies_between(self, since, before, tags=None):
        return [
            e - s for s, e, t in self.view
            if since <= e < before and (tags is None or t in tags)
        ]

    def count(self, since):
        return sum(1 for _s, e, _t in self.stream if e >= since)

    def count_between(self, lo, hi):
        return sum(1 for _s, e, _t in self.stream if lo <= e < hi)

    def mean_latency(self, since):
        if self.sampled and since <= 0.0:
            total = 0.0
            for s, e, _t in self.stream:
                total += e - s
            return total / len(self.stream)
        return self._mean(self.latencies(since))

    def fraction_over(self, threshold, since):
        values = self.latencies(since)
        if not values:
            return 0.0
        return sum(1 for value in values if value > threshold) / len(values)

    @staticmethod
    def _windows(window, horizon):
        start = 0.0
        while start < horizon:
            end = min(start + window, horizon)
            yield start, end
            start = end

    def _buckets(self, window, horizon, exclude):
        buckets = {}
        for s, e, t in self.view:
            if e < horizon and t != exclude:
                buckets.setdefault(int(e // window), []).append(e - s)
        return buckets

    def windowed_rate(self, window, horizon):
        return [
            ((lo + hi) / 2.0, self.count_between(lo, hi) / ((hi - lo) / 1000.0))
            for lo, hi in self._windows(window, horizon)
        ]

    def windowed_count(self, window, horizon, exclude):
        buckets = self._buckets(window, horizon, exclude)
        weight = len(self.stream) / len(self.view) if self.sampled else 1.0
        points = []
        for index, (lo, hi) in enumerate(self._windows(window, horizon)):
            values = buckets.get(index)
            span_s = (hi - lo) / 1000.0
            rate = len(values) * weight / span_s if values and span_s > 0 else 0.0
            points.append(((lo + hi) / 2.0, rate))
        return points

    def windowed_percentile(self, pct, window, horizon, exclude):
        buckets = self._buckets(window, horizon, exclude)
        return [
            ((lo + hi) / 2.0, percentile(buckets[i], pct) if i in buckets else 0.0)
            for i, (lo, hi) in enumerate(self._windows(window, horizon))
        ]

    def windowed_mean(self, window, horizon):
        buckets = self._buckets(window, horizon, None)
        return [((i + 0.5) * window, self._mean(buckets[i])) for i in sorted(buckets)]


_TAGS = ["a", "b", "!failed"]


@st.composite
def _completion_streams(draw):
    """Completions in non-decreasing end order, ties included, with
    arbitrary doubles so ``end - start`` rounds.

    The last completion may end at +inf, which :meth:`record` accepts.
    For finite doubles ``e - (e - (e - s)) == e - s``, so a log that
    kept ``end - latency`` and subtracted again would agree with the
    model on every finite stream; at an infinite end it reads NaN.
    """
    n = draw(st.integers(min_value=0, max_value=60))
    end = draw(st.floats(min_value=0.0, max_value=10.0))
    stream = []
    for _ in range(n):
        end += draw(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=25.0)))
        latency = draw(st.floats(min_value=0.0, max_value=40.0))
        stream.append((end - latency, end, draw(st.sampled_from(_TAGS))))
    if stream and draw(st.booleans()):
        start, _end, tag = stream[-1]
        stream[-1] = (start, math.inf, tag)
    return stream


@given(
    stream=_completion_streams(),
    sample_threshold=st.integers(min_value=1, max_value=50),
    reservoir_size=st.integers(min_value=1, max_value=8),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_recorder_matches_reference_model(stream, sample_threshold, reservoir_size, data):
    rec = LatencyRecorder(sample_threshold=sample_threshold, reservoir_size=reservoir_size)
    for start, end, tag in stream:
        rec.record(start, end, tag)
    model = _ReferenceLog(stream, sample_threshold, reservoir_size)
    assert rec.sampling is model.sampled

    last = stream[-1][1] if stream else 0.0
    ends = [e for _s, e, _t in stream]
    instant = st.one_of(
        st.floats(min_value=-1.0, max_value=last + 1.0),
        st.sampled_from(ends) if ends else st.just(0.0),
    )
    for _ in range(3):
        since, before = sorted([data.draw(instant), data.draw(instant)])
        tag = data.draw(st.sampled_from(_TAGS))
        tags = data.draw(st.lists(st.sampled_from(_TAGS), max_size=2))
        threshold = data.draw(st.floats(min_value=0.0, max_value=40.0))
        assert rec.latencies(since) == model.latencies(since)
        assert rec.latencies(since, tag=tag) == model.latencies(since, tag)
        assert rec.latencies_between(since, before) == model.latencies_between(since, before)
        assert rec.latencies_between(since, before, tags) == model.latencies_between(
            since, before, set(tags)
        )
        assert rec.count(since) == model.count(since)
        assert rec.count_between(since, before) == model.count_between(since, before)
        assert rec.mean_latency(since) == model.mean_latency(since)
        assert rec.fraction_over(threshold, since) == model.fraction_over(threshold, since)

    window = data.draw(st.floats(min_value=1.0, max_value=400.0))
    horizon = data.draw(st.floats(min_value=0.0, max_value=window * 40.0, allow_subnormal=False))
    exclude = data.draw(st.one_of(st.none(), st.sampled_from(_TAGS)))
    pct = data.draw(st.sampled_from([0.0, 50.0, 99.0, 100.0]))
    assert rec.windowed_rate(window, horizon).points == model.windowed_rate(window, horizon)
    assert rec.windowed_count(window, horizon, exclude).points == model.windowed_count(
        window, horizon, exclude
    )
    assert rec.windowed_percentile(
        pct, window, horizon, exclude
    ).points == model.windowed_percentile(pct, window, horizon, exclude)
    assert rec.windowed_mean(window, horizon).points == model.windowed_mean(window, horizon)


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
