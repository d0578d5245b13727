"""Measurement utilities: latency records, throughput series, percentiles.

The experiment harness asks every runtime the same questions the paper
asks its testbed: completed events per second (scaling figures), the
latency distribution (performance figures), latency/server-count time
series (elasticity figures) and windowed throughput (migration figures).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from random import Random
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_SAMPLE_THRESHOLD",
    "LatencySample",
    "LatencyRecorder",
    "TimeSeries",
    "percentile",
    "mean",
]


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sequence."""
    return sum(values) / len(values) if values else 0.0


def percentile(values: Sequence[float], pct: float, presorted: bool = False) -> float:
    """The ``pct``-th percentile (0..100) by nearest-rank; 0.0 if empty.

    Pass ``presorted=True`` to skip the sort when ``values`` is already
    ordered (callers issuing percentile batches sort once up front).
    """
    if not values:
        return 0.0
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile out of range: {pct}")
    ordered = values if presorted else sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(pct / 100.0 * (len(ordered) - 1)))))
    return ordered[rank]


@dataclass(frozen=True)
class LatencySample:
    """One completed request: submission time, completion time, tag."""

    start_ms: float
    end_ms: float
    tag: str = ""

    @property
    def latency_ms(self) -> float:
        """End-to-end latency in milliseconds."""
        return self.end_ms - self.start_ms


#: Exact-to-sampled switchover: below this many samples the recorder
#: keeps every completion (the golden-pinned figures run far below it,
#: so their metrics stay exact and byte-identical); at/above it the
#: recorder degrades to a fixed-size reservoir plus exact scalar
#: aggregates, bounding memory for massive-tier runs.
DEFAULT_SAMPLE_THRESHOLD = 4_000_000


class LatencyRecorder:
    """The completion log: every finished request, read for throughput and latency.

    Storage is three append-only parallel lists (start, end, tag) — one
    dataclass allocation per completed request was a measurable share of
    the simulation hot path.  A simulator records at ``sim.now``, so end
    times never decrease (:meth:`record` rejects one that does) and every
    window is located with :func:`bisect.bisect_left`.

    **Reservoir mode.**  Once ``sample_threshold`` samples have been
    recorded, start times and tags move into an Algorithm R reservoir of
    ``(start, end, tag)`` triples, seeded deterministically, while end
    times stay exact: ``len``, :meth:`count`, :meth:`count_between`,
    :meth:`windowed_rate` and the full-run :meth:`mean_latency` are exact
    in both modes; latency/percentile queries answer from the reservoir
    — unbiased estimates with the usual ~1/sqrt(k) error for a window
    holding ``k`` reservoir points.  The threshold is far above every
    golden-pinned figure's sample count, so quick/full figures never
    leave exact mode.
    """

    def __init__(
        self,
        sample_threshold: int = DEFAULT_SAMPLE_THRESHOLD,
        reservoir_size: int = 65536,
        sample_seed: int = 0,
    ) -> None:
        self._starts: List[float] = []
        self._ends: List[float] = []
        self._tags: List[str] = []
        # Single-slot cache of the last sorted latency view, keyed by
        # (record count, since_ms, tag): percentile batches over the
        # same window sort once instead of once per call.
        self._sorted_key: Optional[tuple] = None
        self._sorted_view: List[float] = []
        # Single-slot cache of the last window-bucket view (same idea):
        # windowed count + percentile series over the same horizon reuse
        # one O(n) bucketing pass instead of rescanning per query.
        self._buckets_key: Optional[tuple] = None
        self._buckets_view: Dict[int, List[float]] = {}
        # Reservoir-sampling state (engaged at sample_threshold).
        self._sample_threshold = max(1, int(sample_threshold))
        self._reservoir_size = max(1, int(reservoir_size))
        self._sample_seed = sample_seed
        self._reservoir: Optional[List[Tuple[float, float, str]]] = None
        self._rng: Optional[Random] = None
        self._lat_sum = 0.0

    @property
    def sampling(self) -> bool:
        """Whether the recorder has switched to reservoir mode."""
        return self._reservoir is not None

    def __len__(self) -> int:
        return len(self._ends)

    def record(self, start_ms: float, end_ms: float, tag: str = "") -> None:
        """Record one completed request."""
        if end_ms < start_ms:
            raise ValueError("request completed before it started")
        ends = self._ends
        if ends and end_ms < ends[-1]:
            raise ValueError("completion recorded before an earlier one")
        ends.append(end_ms)
        reservoir = self._reservoir
        if reservoir is None:
            self._starts.append(start_ms)
            self._tags.append(tag)
            if len(ends) >= self._sample_threshold:
                self._engage_sampling()
            return
        self._lat_sum += end_ms - start_ms
        if len(reservoir) < self._reservoir_size:
            reservoir.append((start_ms, end_ms, tag))
        else:
            j = self._rng.randrange(len(ends))
            if j < self._reservoir_size:
                reservoir[j] = (start_ms, end_ms, tag)

    def _engage_sampling(self) -> None:
        """Switch to reservoir mode: replay the exact samples, drop starts/tags.

        Algorithm R over the existing stream with a fixed-seed RNG, so
        the reservoir (and everything derived from it) is a pure
        function of the recorded stream and the seed.
        """
        rng = Random(self._sample_seed)
        size = self._reservoir_size
        reservoir: List[Tuple[float, float, str]] = []
        starts, ends, tags = self._starts, self._ends, self._tags
        lat_sum = 0.0
        for i in range(len(ends)):
            lat_sum += ends[i] - starts[i]
            if len(reservoir) < size:
                reservoir.append((starts[i], ends[i], tags[i]))
            else:
                j = rng.randrange(i + 1)
                if j < size:
                    reservoir[j] = (starts[i], ends[i], tags[i])
        self._reservoir = reservoir
        self._rng = rng
        self._lat_sum = lat_sum
        self._starts = []
        self._tags = []
        self._sorted_key = None
        self._buckets_key = None

    def _scale(self) -> float:
        """How many recorded samples each reservoir point represents."""
        reservoir = self._reservoir
        if not reservoir:
            return 1.0
        return len(self._ends) / len(reservoir)

    @property
    def samples(self) -> List[LatencySample]:
        """Materialized sample objects (compatibility/introspection view).

        In reservoir mode this is the reservoir's content — a uniform
        random subset of the stream — not every completion.
        """
        if self._reservoir is not None:
            return [LatencySample(s, e, t) for s, e, t in self._reservoir]
        return [
            LatencySample(s, e, t)
            for s, e, t in zip(self._starts, self._ends, self._tags)
        ]

    def latencies(self, since_ms: float = 0.0, tag: Optional[str] = None) -> List[float]:
        """Latency values completed at/after ``since_ms`` (optionally by tag).

        Reservoir mode answers from the sampled subset.
        """
        reservoir = self._reservoir
        if reservoir is not None:
            return [
                e - s for s, e, t in reservoir
                if e >= since_ms and (tag is None or t == tag)
            ]
        starts, ends = self._starts, self._ends
        lo = bisect.bisect_left(ends, since_ms)
        if tag is None:
            return [ends[i] - starts[i] for i in range(lo, len(ends))]
        tags = self._tags
        return [ends[i] - starts[i] for i in range(lo, len(ends)) if tags[i] == tag]

    def latencies_between(
        self,
        since_ms: float,
        before_ms: float,
        tags: Optional[Sequence[str]] = None,
    ) -> List[float]:
        """Latencies of completions in ``[since_ms, before_ms)``, record order.

        ``tags`` restricts the result to samples whose tag is in the
        given set — how co-tenancy scenarios split one shared latency
        stream into per-application views.  Reservoir mode answers from
        the sampled subset.
        """
        wanted = None if tags is None else set(tags)
        reservoir = self._reservoir
        if reservoir is not None:
            return [
                e - s for s, e, t in reservoir
                if since_ms <= e < before_ms and (wanted is None or t in wanted)
            ]
        starts, ends = self._starts, self._ends
        lo = bisect.bisect_left(ends, since_ms)
        hi = bisect.bisect_left(ends, before_ms)
        if wanted is None:
            return [ends[i] - starts[i] for i in range(lo, hi)]
        sample_tags = self._tags
        return [ends[i] - starts[i] for i in range(lo, hi) if sample_tags[i] in wanted]

    def count(self, since_ms: float = 0.0) -> int:
        """Number of completions at/after ``since_ms`` (exact in both modes)."""
        return len(self._ends) - bisect.bisect_left(self._ends, since_ms)

    def count_between(self, start_ms: float, end_ms: float) -> int:
        """Completions in the half-open interval [start, end) (exact)."""
        ends = self._ends
        return bisect.bisect_left(ends, end_ms) - bisect.bisect_left(ends, start_ms)

    def windowed_rate(self, window_ms: float, horizon_ms: float) -> "TimeSeries":
        """Completions/second per ``window_ms`` bucket over [0, horizon) (exact)."""
        return self._series(
            window_ms,
            horizon_ms,
            lambda _index, start, end: (
                self.count_between(start, end) / ((end - start) / 1000.0)
            ),
        )

    def mean_latency(self, since_ms: float = 0.0) -> float:
        """Mean latency of completions at/after ``since_ms``.

        The full-stream mean stays exact in reservoir mode (tracked as
        a running sum); windowed means are reservoir estimates.
        """
        if self._reservoir is not None and since_ms <= 0.0:
            return self._lat_sum / len(self._ends)
        return mean(self.latencies(since_ms))

    def _sorted_latencies(self, since_ms: float, tag: Optional[str]) -> List[float]:
        key = (len(self._ends), since_ms, tag)
        if key != self._sorted_key:
            self._sorted_view = sorted(self.latencies(since_ms, tag))
            self._sorted_key = key
        return self._sorted_view

    def percentile_latency(self, pct: float, since_ms: float = 0.0) -> float:
        """Latency percentile of completions at/after ``since_ms``.

        Repeated percentile queries over the same window (p50/p99/...
        batches in ``measure()`` and SLA reports) reuse one cached
        sorted view instead of re-sorting per call.
        """
        return percentile(self._sorted_latencies(since_ms, None), pct,
                          presorted=True)

    def fraction_over(self, threshold_ms: float, since_ms: float = 0.0) -> float:
        """Fraction of requests with latency > threshold (SLA accounting)."""
        lats = self.latencies(since_ms)
        if not lats:
            return 0.0
        return sum(1 for value in lats if value > threshold_ms) / len(lats)

    def windowed_mean(self, window_ms: float, horizon_ms: float) -> "TimeSeries":
        """Mean latency per ``window_ms`` bucket over [0, horizon)."""
        buckets = self._window_buckets(window_ms, horizon_ms, None)
        points = [
            ((index + 0.5) * window_ms, mean(values))
            for index, values in sorted(buckets.items())
        ]
        return TimeSeries(points)

    def _window_buckets(
        self, window_ms: float, horizon_ms: float, exclude_tag: Optional[str]
    ) -> Dict[int, List[float]]:
        """Latencies bucketed by completion window, optionally minus a tag.

        One O(n) bucketing pass serves every windowed series over the
        same (window, horizon, tag) triple: the result is cached in a
        single slot keyed like the sorted-latency view, so the
        count+percentile query pairs issued by the availability
        experiments stop rescanning the full record per query.  Callers
        treat the returned dict as read-only.
        """
        key = (len(self._ends), window_ms, horizon_ms, exclude_tag)
        if key == self._buckets_key:
            return self._buckets_view
        buckets: Dict[int, List[float]] = {}
        if self._reservoir is not None:
            for start, end, tag in self._reservoir:
                if end >= horizon_ms:
                    continue
                if exclude_tag is not None and tag == exclude_tag:
                    continue
                buckets.setdefault(int(end // window_ms), []).append(end - start)
        else:
            starts, ends, tags = self._starts, self._ends, self._tags
            for i in range(len(ends)):
                end = ends[i]
                if end >= horizon_ms:
                    break
                if exclude_tag is not None and tags[i] == exclude_tag:
                    continue
                buckets.setdefault(int(end // window_ms), []).append(end - starts[i])
        self._buckets_key = key
        self._buckets_view = buckets
        return buckets

    @staticmethod
    def _series(window_ms: float, horizon_ms: float, value) -> "TimeSeries":
        """One point per window over [0, horizon): ``value(index, start, end)``.

        Every window appears, so outage gaps show as explicit points.
        """
        points: List[Tuple[float, float]] = []
        index = 0
        start = 0.0
        while start < horizon_ms:
            end = min(start + window_ms, horizon_ms)
            points.append(((start + end) / 2.0, value(index, start, end)))
            index += 1
            start = end
        return TimeSeries(points)

    def windowed_count(
        self,
        window_ms: float,
        horizon_ms: float,
        exclude_tag: Optional[str] = None,
    ) -> "TimeSeries":
        """Completions/second per bucket over [0, horizon), minus a tag.

        Empty buckets report 0.0, so outage windows show as explicit
        zeros — with ``exclude_tag="!failed"`` this is the *goodput*
        series of the availability experiments.  Reservoir mode scales
        each sampled point by the stream/reservoir ratio so the rates
        stay unbiased.
        """
        buckets = self._window_buckets(window_ms, horizon_ms, exclude_tag)
        weight = self._scale() if self._reservoir is not None else 1.0

        def rate(index: int, start: float, end: float) -> float:
            values = buckets.get(index)
            span_s = (end - start) / 1000.0
            if not values or span_s <= 0:
                return 0.0
            return len(values) * weight / span_s

        return self._series(window_ms, horizon_ms, rate)

    def windowed_percentile(
        self,
        pct: float,
        window_ms: float,
        horizon_ms: float,
        exclude_tag: Optional[str] = None,
    ) -> "TimeSeries":
        """Latency percentile per bucket over [0, horizon), minus a tag.

        Empty buckets report 0.0 (nothing completed in the window).
        """
        buckets = self._window_buckets(window_ms, horizon_ms, exclude_tag)

        def bucket_pct(index: int, _start: float, _end: float) -> float:
            values = buckets.get(index)
            return percentile(values, pct) if values else 0.0

        return self._series(window_ms, horizon_ms, bucket_pct)


@dataclass
class TimeSeries:
    """A list of ``(time_ms, value)`` points with small conveniences."""

    points: List[Tuple[float, float]] = field(default_factory=list)

    def add(self, time_ms: float, value: float) -> None:
        """Append one point."""
        self.points.append((time_ms, value))

    def values(self) -> List[float]:
        """All y-values."""
        return [value for _t, value in self.points]

    def times(self) -> List[float]:
        """All x-values (milliseconds)."""
        return [time_ms for time_ms, _v in self.points]

    def mean_value(self) -> float:
        """Mean of the y-values."""
        return mean(self.values())

    def max_value(self) -> float:
        """Max of the y-values (0.0 if empty)."""
        return max(self.values()) if self.points else 0.0
