"""SLA accounting (§6.2 / Table 1) and availability SLOs (fig11).

:func:`sla_report` is the paper's Table 1 row (per-request latency
violations).  :func:`availability_slo` is the churn experiment's
window-level view: a run is sliced into fixed windows, each window
*meets* the SLO when its goodput stays above a fraction of the
fault-free baseline **and** its p99 stays below a multiple of the
baseline p99 — availability is the fraction of windows that meet both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..sim.metrics import LatencyRecorder, mean

__all__ = ["SlaReport", "sla_report", "AvailabilityReport", "availability_slo"]


@dataclass(frozen=True)
class SlaReport:
    """Table 1's row: violation percentage and resource usage."""

    setup: str
    sla_ms: float
    total_requests: int
    violations: int
    avg_servers: float

    @property
    def violation_pct(self) -> float:
        """Percentage of requests exceeding the SLA."""
        if self.total_requests == 0:
            return 0.0
        return 100.0 * self.violations / self.total_requests


def sla_report(
    setup: str,
    recorder: LatencyRecorder,
    sla_ms: float,
    avg_servers: float,
    since_ms: float = 0.0,
) -> SlaReport:
    """Build one Table 1 row from a latency recorder."""
    latencies = recorder.latencies(since_ms=since_ms)
    violations = sum(1 for value in latencies if value > sla_ms)
    return SlaReport(
        setup=setup,
        sla_ms=sla_ms,
        total_requests=len(latencies),
        violations=violations,
        avg_servers=avg_servers,
    )


@dataclass(frozen=True)
class AvailabilityReport:
    """Window-level availability under faults (one fig11 table row)."""

    windows: int
    windows_meeting: int
    goodput_target_per_s: float
    p99_target_ms: float
    baseline_goodput_per_s: float
    baseline_p99_ms: float
    #: Acked writes rolled back by crash/recovery.
    lost_work: int

    @property
    def availability_pct(self) -> float:
        """Percentage of windows meeting both goodput and p99 targets."""
        if self.windows == 0:
            return 0.0
        return 100.0 * self.windows_meeting / self.windows

    def as_dict(self) -> dict:
        """Plain-dict form for figure-data JSON."""
        return {
            "windows": self.windows,
            "windows_meeting": self.windows_meeting,
            "availability_pct": self.availability_pct,
            "goodput_target_per_s": self.goodput_target_per_s,
            "p99_target_ms": self.p99_target_ms,
            "baseline_goodput_per_s": self.baseline_goodput_per_s,
            "baseline_p99_ms": self.baseline_p99_ms,
            "lost_work": self.lost_work,
        }


def availability_slo(
    goodput_points: List[Tuple[float, float]],
    p99_points: List[Tuple[float, float]],
    baseline_from_ms: float,
    baseline_to_ms: float,
    eval_from_ms: float,
    eval_to_ms: float,
    goodput_fraction: float = 0.5,
    p99_multiplier: float = 5.0,
    p99_floor_ms: float = 25.0,
    *,
    lost_work: int,
) -> AvailabilityReport:
    """Score windowed goodput/p99 series against an availability SLO.

    ``goodput_points``/``p99_points`` are aligned ``(window_mid_ms,
    value)`` series (one point per window, e.g. from
    ``LatencyRecorder.windowed_count``/``windowed_percentile`` with
    failures excluded).  The fault-free **baseline** is measured over
    ``[baseline_from_ms, baseline_to_ms)``; windows inside
    ``[eval_from_ms, eval_to_ms)`` then meet the SLO when

    * goodput ≥ ``goodput_fraction`` × baseline mean goodput, and
    * p99 ≤ max(``p99_multiplier`` × baseline p99, ``p99_floor_ms``)
      (the floor keeps a near-zero baseline p99 from making the target
      unmeetably strict).

    ``lost_work`` — acked writes rolled back at crash/recovery time
    (``runtime.writes_rolled_back``) — rides along in the report:
    availability alone hides durability loss, since a run that drops
    updates can still meet every latency window.
    """
    base_goodput = mean(
        [v for t, v in goodput_points if baseline_from_ms <= t < baseline_to_ms]
    )
    base_p99 = mean(
        [v for t, v in p99_points if baseline_from_ms <= t < baseline_to_ms]
    )
    goodput_target = goodput_fraction * base_goodput
    p99_target = max(p99_multiplier * base_p99, p99_floor_ms)
    p99_by_time = dict(p99_points)
    windows = 0
    meeting = 0
    for t, goodput in goodput_points:
        if not eval_from_ms <= t < eval_to_ms:
            continue
        windows += 1
        if goodput >= goodput_target and p99_by_time.get(t, 0.0) <= p99_target:
            meeting += 1
    return AvailabilityReport(
        windows=windows,
        windows_meeting=meeting,
        goodput_target_per_s=goodput_target,
        p99_target_ms=p99_target,
        baseline_goodput_per_s=base_goodput,
        baseline_p99_ms=base_p99,
        lost_work=lost_work,
    )
