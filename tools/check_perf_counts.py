#!/usr/bin/env python
"""Gate on exact call counts per op: a CI check that cannot be noisy.

Usage::

    python3 perf/run.py --all --with-trace --smoke
    python tools/check_perf_counts.py [.perf_out/sets.json]

Reads the record set the benchmark's smoke run writes and, for every
listed workload's *traced* record, divides ``sim.calls``,
``core.calls``, ``apps.calls`` and ``baselines.calls`` (Python calls
into ``src/repro/sim``, ``src/repro/core``, ``src/repro/apps`` and
``src/repro/baselines`` during one profiled pass — they repeat exactly
for a seed, on any machine) by the pass's ``ops``.  Exit code 1 when a count
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
#: ``game_scaleout``'s smoke size runs EventWave alone, and counts its
#: nested calls, hops and branch closes under ``core``: ``RuntimeBase``
#: holds ``_sync_call``, ``_hop`` and ``_close_branch`` for every runtime.
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
#: The three runtime workloads were at 108.3677 / 144.1896 (game),
#: 87.0319 / 172.3775 (TPC-C) and 46.7094 / 67.9806 (massive) while
#: ``submit`` completed a separate signal beside the event process,
#: ``_sync_call`` claimed its locks in a helper generator, every
#: ``ref.method`` lookup went through ``ContextRef.__getattr__`` and
#: ``_drive_body`` asked a helper whether a body returned a generator.
#: ``massive_bulk`` ``core.calls`` was 66.6364 while a leaf's first
#: acquisition called a lock getter that built an idle lock to request
#: on; a lock is now constructed holding its first event, in one call.
#: It was 64.1610 while ``OwnershipNetwork.add_leaves`` checked each cid
#: of the bulk build with a ``__contains__`` call; the batch is now
#: checked and written by dict and set operations.
#: ``sim.calls`` was 6.9161 (micro), 105.2835 (game), 84.0285 (TPC-C)
#: and 44.0209 (massive), and ``core.calls`` 129.8058, 163.2534 and
#: 56.6483, while a process start, a CPU hand-over and a busy
#: ``yield None`` each went through ``Simulator.call_soon``, a process
#: built its signal half through ``Signal.__init__``, AEON's branch
#: close (``_close_branch``) was a generator resumed twice, and
#: ``submit`` resolved its instance and method through ``instance_of``
#: and ``_method_meta_for`` calls.
#: ``sim.calls`` was 6.6994 (micro), 99.225 (game), 80.8893 (TPC-C) and
#: 40.851 (massive) while a ``Timeout`` built its signal half through
#: ``Signal.__init__`` and the trampoline queued an already-triggered
#: wait and a busy CPU grant through ``Simulator.call_soon``; both are
#: open-coded now that an immediate entry is a plain ``(callback, args)``.
#: ``sim.calls`` was 98.6291 (game), 80.8842 (TPC-C) and 40.7496
#: (massive) while every server, client and eManager host built a
#: ``Store`` mailbox at setup that nothing read; ``kernel_micro`` did not
#: move.
#: ``core.calls`` was 126.6714 (game), 157.995 (TPC-C) and 53.848
#: (massive), and TPC-C's ``baselines.calls`` 70.9245, while a lock
#: release went through four helpers (one per single lock, one per
#: batch, one to arm the timer, one to pick the latency), a branch was
#: an object of its own, opening one was a method call and an Orleans
#: turn ended in a helper generator; ``RuntimeBase._release`` arms every
#: release now.  ``sim.calls`` and ``apps.calls`` did not move.
#: ``core.calls`` was 120.3599 (game), 144.5151 (TPC-C) and 49.8152
#: (massive), and the game's ``baselines.calls`` 31.0603, while each
#: runtime charged a message's serialization CPU and sent it inline and
#: AEON and Orleans open-coded the client ingress.  ``RuntimeBase._hop``
#: and ``_ingress`` are generators, and the profiler counts each resume
#: of a delegating ``yield from`` level as a call: +7.0216 (game, where
#: EventWave uses ``_hop`` only), +18.4413 (TPC-C) and +6.7213 (massive)
#: calls per op.  EventWave's commit became ``_close_branch`` plus
#: ``_release_deferred``, two ``core`` calls per event more (+3.0842 per
#: op), and its root sequencer is built with the runtime instead of
#: through a lazy accessor, one ``baselines`` call per event fewer
#: (-1.5421 per op).  ``sim.calls`` and ``apps.calls`` did not move.
#: TPC-C's ``core.calls`` was 162.9564 and its ``apps.calls`` 23.0302
#: while Orleans' NewOrder found its district's index again with
#: ``districts.index`` (one ``ContextRef.__eq__`` per district passed)
#: and ``TpccWorkload._lines`` built its lines in a comprehension, a
#: call of its own; the index is the one ``_pick`` drew, and the lines
#: are appended in a loop that takes each tuple from the workload's pool.
#: The ownership checks' switch to the ancestor index left the game's
#: and the massive tier's ``core.calls`` within 0.02 % of their pins
#: (each index entry's first walk calls ``_owners`` per context it
#: meets), so they were not re-pinned.
#: ``core.calls`` was 130.4657 (game), 162.6477 (TPC-C) and 56.5365
#: (massive) while ``add_leaves`` read each owner's ancestor-index entry
#: to find the descendant sets a new leaf had to join, and a cold
#: ``share`` asked every full node for its descendant set; no descendant
#: set is cached now, so a single-owner leaf (every aeon_so Order)
#: patches nothing, and a cold ``share`` walks down from C only.  ``massive_bulk`` ``apps.calls`` was 5.1714 while
#: ``run_checksum`` built its lines in a list comprehension, a call of
#: its own.
#: ``massive_bulk`` ``core.calls`` was 56.5127 while ``create_contexts_bulk``
#: registered every leaf up front.  A population is one record now, and
#: a leaf is registered on its first touch by the one
#: ``OwnershipNetwork.member`` call ``instance_of`` makes (inline, no
#: helper): 826 first touches over the smoke pass's 671 ops, +1.2310 per
#: op.  No other count moved.
#: ``massive_bulk`` ``core.calls`` was 57.7452 while a first touch
#: entered the leaf in the compact-leaf map, so that ``dominator``
#: answered a touched leaf from the map.  The touch writes nothing to
#: the ownership network now, and ``dominator`` answers every bulk leaf
#: with one ``OwnershipNetwork.member`` call: the smoke pass's 902
#: events, all on bulk leaves, over its 671 ops, +1.3443 per op.  The
#: first touch still makes its one ``member`` call.  No other count
#: moved.
#: ``massive_bulk`` ``core.calls`` was 59.0894 while ``dominator``
#: answered every event on a bulk leaf with that ``member`` call: AEON's
#: event path passes ``registered=True`` now (``submit`` built the
#: target's instance), so a cid in neither map is its own dominator
#: without a parse, back to 57.7452 (-902 calls over 671 ops).  The
#: kernel's one-argument queue protocol moved no ``sim.calls`` count.
#: ``apps.calls`` and ``baselines.calls`` are pinned since they were
#: first gated, at the values of that commit; ``game_scaleout`` counts
#: EventWave's runtime under ``baselines``, ``tpcc_contention`` Orleans'.
PINNED = {
    "kernel_micro": {
        "sim.calls": 6.4362, "core.calls": 0.0,
        "apps.calls": 0.0, "baselines.calls": 0.0,
    },
    "game_scaleout": {
        "sim.calls": 98.5729, "core.calls": 130.422,
        "apps.calls": 9.5702, "baselines.calls": 29.5182,
    },
    "tpcc_contention": {
        "sim.calls": 80.8406, "core.calls": 161.0805,
        "apps.calls": 22.3356, "baselines.calls": 64.9413,
    },
    "massive_bulk": {
        "sim.calls": 40.69, "core.calls": 57.7452,
        "apps.calls": 5.1699, "baselines.calls": 0.0,
    },
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
                f"{workload:<16} {name:<15} {value:10.3f} per op"
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
