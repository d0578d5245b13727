#!/usr/bin/env python
"""Gate on exact call counts per op: a CI check that cannot be noisy.

Usage::

    python3 perf/run.py --all --with-trace --smoke
    python tools/check_perf_counts.py [.perf_out/sets.json]

Reads the record set the benchmark's smoke run writes and, for every
listed workload's *traced* record, divides ``sim.calls`` and
``core.calls`` (Python calls into ``src/repro/sim`` and
``src/repro/core`` during one profiled pass — they repeat exactly for a
seed, on any machine) by the pass's ``ops``.  Exit code 1 when a count
per op exceeds its pin below by more than 2 %, or when a pinned
workload's traced record is missing; 0 otherwise.

The pins are the values of the commit that last changed them on
purpose.  A change that *lowers* a count by more than the tolerance is
reported (not failed) so that the gain gets pinned; one that raises it
must either be fixed or re-pin here and say why in CHANGES.md.
"""

from __future__ import annotations

import json
import sys

#: Calls per op of ``perf/run.py --all --with-trace --smoke`` (seed 0).
#: ``game_scaleout`` counts EventWave's nested calls under ``core``:
#: ``RuntimeBase._sync_call`` is the one body AEON and EventWave share.
#: ``core.calls`` as of PR 22: per-context state went back to plain dicts,
#: so the mapping-facade methods no longer count as calls (144.3833,
#: 177.7987 and 75.5887 before); ``sim.calls`` did not move.
#: ``kernel_micro`` ``sim.calls`` was 7.0744 while ``Resource.use`` ran a
#: grant-and-hop generator of its own; as one ``CpuCharge`` a hold no
#: longer calls its two idle-check helpers.
#: ``sim.calls`` of the three runtime workloads was 109.9112, 88.5369 and
#: 48.0566 while every completion was logged twice (a second recorder
#: call per event) and ``Network.send`` asked a latency-model method for
#: each message's propagation delay; neither call is left.
#: ``core.calls`` and ``kernel_micro`` did not move.
PINNED = {
    "kernel_micro": {"sim.calls": 6.9161, "core.calls": 0.0},
    "game_scaleout": {"sim.calls": 108.3677, "core.calls": 144.1896},
    "tpcc_contention": {"sim.calls": 87.0319, "core.calls": 172.3775},
    "massive_bulk": {"sim.calls": 46.7094, "core.calls": 67.9806},
}

#: Relative excess over a pin that fails the gate.
TOLERANCE = 0.02


def counts_per_op(records: list) -> dict:
    """``{workload: {metric: calls per op}}`` of the traced smoke records."""
    found = {}
    for record in records:
        if record["trace"] and record["workload"] in PINNED:
            found[record["workload"]] = {
                name: record["metrics"][name]["value"] / record["ops"]
                for name in PINNED[record["workload"]]
            }
    return found


def check(records: list) -> list:
    """Print one line per pinned count; return the failures."""
    found = counts_per_op(records)
    failures = []
    for workload, pins in PINNED.items():
        if workload not in found:
            failures.append(f"{workload}: no traced record (run with --with-trace)")
            continue
        for name, pin in pins.items():
            value = found[workload][name]
            excess = value / pin - 1.0 if pin else (1.0 if value else 0.0)
            excess = round(excess, 4) + 0.0  # rounding of the pins; no "-0.0%"
            line = (
                f"{workload:<16} {name:<10} {value:10.3f} per op"
                f"  (pin {pin:.3f}, {excess:+.1%})"
            )
            if excess > TOLERANCE:
                failures.append(line)
            elif excess < -TOLERANCE:
                line += "  <- lower: re-pin in tools/check_perf_counts.py"
            print(f"check_perf_counts: {line}")
    return failures


def main(argv: list[str]) -> int:
    path = argv[0] if argv else ".perf_out/sets.json"
    with open(path, encoding="utf-8") as handle:
        records = json.load(handle)["records"]
    failures = check(records)
    for failure in failures:
        print(f"check_perf_counts: OVER {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"check_perf_counts: OK ({len(PINNED)} workloads)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
