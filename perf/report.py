"""Tables over saved runs: the calibration summary and the comparison.

Both read the records ``run.py`` writes and the metric definitions of
``BENCHMARK.json``.  Timings are summarised as median, quartiles and
minimum; a spread is the distance between the quartiles as a share of
the median, which is what a metric's bound has to be judged against.
Counts that repeat exactly (``ops``, digests, ``*.calls``) are compared
for equality, never averaged.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Optional, Tuple

Records = List[Dict[str, Any]]


def _values(records: Records, workload: str, trace: int, metric: str) -> List[float]:
    return [
        r["metrics"][metric]["value"]
        for r in records
        if r["workload"] == workload and r["trace"] == trace and metric in r["metrics"]
    ]


def _summary(values: List[float]) -> Optional[Tuple[float, float, float, float, float]]:
    """``(median, q1, q3, min, spread)``; None below two values."""
    if len(values) < 2:
        return None
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, min(values), (q3 - q1) / median if median else 0.0


def _workloads(spec: Dict[str, Any]) -> List[str]:
    return [w["name"] for w in spec["workloads"]]


def summarize(records: Records, spec: Dict[str, Any]) -> str:
    """Per workload × end-to-end metric: median, quartiles, min, spread.

    A spread above the metric's bound is marked ``WIDE`` (the benchmark
    could not resolve a regression of that size), above a third of it
    ``over 1/3``.
    """
    lines = [
        f"{'workload':<16} {'metric':<12} {'n':>3} {'median':>12} {'q1':>12} "
        f"{'q3':>12} {'min':>12} {'spread':>7} {'bound':>6}"
    ]
    for workload in _workloads(spec):
        for metric in spec["end_to_end"]:
            values = _values(records, workload, 0, metric["name"])
            stats = _summary(values)
            if stats is None:
                continue
            median, q1, q3, low, spread = stats
            flag = ""
            if metric["name"] != "setup_s":
                if spread > metric["bound"]:
                    flag = "  WIDE"
                elif spread > metric["bound"] / 3:
                    flag = "  over 1/3"
            lines.append(
                f"{workload:<16} {metric['name']:<12} {len(values):>3} {median:>12.5g} "
                f"{q1:>12.5g} {q3:>12.5g} {low:>12.5g} {spread:>7.2%} "
                f"{metric['bound']:>6.0%}{flag}"
            )
    return "\n".join(lines)


def _exact_differences(a: Records, b: Records) -> List[str]:
    """Counts that must repeat exactly, matched run by run."""
    def keyed(records: Records) -> Dict[Tuple[str, int, int], Dict[str, Any]]:
        return {(r["workload"], r["seed"], r["trace"]): r for r in records}

    left, right = keyed(a), keyed(b)
    differences = []
    for key in sorted(set(left) & set(right)):
        ra, rb = left[key], right[key]
        label = f"{key[0]} seed {key[1]} trace {key[2]}"
        for name in ("ops", "digest"):
            if ra[name] != rb[name]:
                differences.append(f"{label}: {name} {ra[name]} != {rb[name]}")
        for name, metric in ra["metrics"].items():
            other = rb["metrics"].get(name)
            if name.endswith(".calls") and other and metric["value"] != other["value"]:
                differences.append(
                    f"{label}: {name} {metric['value']} != {other['value']}"
                )
    if not set(left) & set(right):
        differences.append("no run (workload, seed, trace) is in both sets")
    return differences


def compare(a: Records, b: Records, spec: Dict[str, Any]) -> str:
    """Two sets side by side, one row per workload × end-to-end metric.

    ``worse`` is B's median against A's in the metric's bad direction.
    Only a pair whose medians are within the bound *and* whose spreads
    are no wider than it is called ``within``; anything else is
    ``unresolved`` — the sets cannot be called equal on that metric.
    """
    lines = [
        f"{'workload':<16} {'metric':<12} {'A median':>12} {'B median':>12} "
        f"{'worse':>8} {'A spread':>9} {'B spread':>9} {'bound':>6}  verdict"
    ]
    for workload in _workloads(spec):
        for metric in spec["end_to_end"]:
            sa = _summary(_values(a, workload, 0, metric["name"]))
            sb = _summary(_values(b, workload, 0, metric["name"]))
            if sa is None or sb is None:
                continue
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (sb[0] - sa[0]) / sa[0]
            resolved = max(sa[4], sb[4]) <= metric["bound"]
            verdict = "within" if resolved and abs(worse) <= metric["bound"] else "unresolved"
            lines.append(
                f"{workload:<16} {metric['name']:<12} {sa[0]:>12.5g} {sb[0]:>12.5g} "
                f"{worse:>+8.2%} {sa[4]:>9.2%} {sb[4]:>9.2%} {metric['bound']:>6.0%}  {verdict}"
            )
    differences = _exact_differences(a, b)
    lines.append("")
    lines.append(
        "exact counts (ops, digests, *.calls): "
        + ("identical in every run both sets share" if not differences else "DIFFERENT")
    )
    lines.extend(f"  {line}" for line in differences)
    return "\n".join(lines)
