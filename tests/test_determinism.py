"""Trace-checksum regression tests for kernel determinism.

The simulator's core property is that a fixed program plus fixed RNG
seeds produces an identical event trace.  These tests pin SHA-256
checksums of the (eid, tag, submitted, committed, reads, writes) trace
and the final metrics of a seeded game run (all three runtimes) and a
seeded TPC-C run, so that kernel fast paths (immediate queue, inline
signal completion, trampoline) can never silently reorder events: any
reordering changes a commit time or an observed version and breaks the
checksum.

The pinned values were generated with the original heap-only kernel;
the optimized kernel must reproduce them byte for byte.
"""

import hashlib

from repro.apps.game import GameConfig, build_game
from repro.apps.tpcc import TpccConfig, TpccWorkload, build_tpcc
from repro.harness.runner import make_testbed, run_closed_loop
from repro.workloads.generators import ClosedLoopClients


def _trace_checksum(runtime, sim) -> str:
    """SHA-256 over the committed-event trace and the final metrics."""
    assert runtime.history is not None
    lines = [
        "|".join(
            (
                str(ev.eid),
                ev.tag,
                repr(ev.submitted_ms),
                repr(ev.committed_ms),
                repr(sorted(ev.reads.items())),
                repr(sorted(ev.writes.items())),
            )
        )
        for ev in runtime.history.events
    ]
    lines.append(
        "|".join(
            (
                repr(sim.now),
                str(runtime.events_completed),
                str(runtime.network.messages_sent),
                repr(runtime.latency.mean_latency()),
                repr(runtime.latency.percentile_latency(99.0)),
                str(runtime.latency.count_between(0.0, sim.now + 1.0)),
            )
        )
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _game_checksum(system: str) -> str:
    with make_testbed(system, 2, seed=7, record_history=True) as testbed:
        app = build_game(
            testbed.runtime, GameConfig(rooms=2), system, servers=testbed.servers
        )
        run_closed_loop(
            testbed, system, app.sample_op, 16,
            think_ms=2.0, duration_ms=400.0, warmup_ms=100.0, drain_ms=2000.0,
        )
        return _trace_checksum(testbed.runtime, testbed.sim)


def _tpcc_checksum() -> str:
    testbed = make_testbed("aeon", 2, seed=3, record_history=True)
    config = TpccConfig(districts=2, customers_per_district=6)
    deployment = build_tpcc(
        testbed.runtime,
        config,
        multi_ownership=True,
        servers=testbed.servers,
        colocate=True,
    )
    workload = TpccWorkload(deployment, "aeon")
    clients = ClosedLoopClients(
        testbed.runtime,
        workload.sample_op,
        n_clients=8,
        think_ms=5.0,
        rng=testbed.rng,
        stop_at_ms=600.0,
    )
    clients.start()
    testbed.sim.run(until=3000.0)
    return _trace_checksum(testbed.runtime, testbed.sim)


# Pinned traces (generated with the pre-fast-path kernel; see module doc).
GAME_CHECKSUMS = {
    "aeon": "b977b0dec3acbf2c39bd36e51da7acbb7be7f929ae2a211092577716be5f0f53",
    "eventwave": "9cdd04a174306ebb921ffb0bfd25633af6c4b3427c53ac5173aaaccf841be001",
    "orleans": "7ece6f675be356ad3955c7eeb30ec009f5400152476d1c6e0f07c3546ee2984f",
}
TPCC_CHECKSUM = "6cb42bbf840a3d1892ae9fcfb72eea91a41d6944ac33e1cbe5399f15df057700"


def test_game_trace_matches_pinned_checksum():
    for system, expected in GAME_CHECKSUMS.items():
        assert _game_checksum(system) == expected, f"{system} trace diverged"


def test_game_trace_stable_across_runs():
    assert _game_checksum("aeon") == _game_checksum("aeon")


def test_tpcc_trace_matches_pinned_checksum():
    assert _tpcc_checksum() == TPCC_CHECKSUM


if __name__ == "__main__":  # pragma: no cover - checksum (re)generation aid
    for name in GAME_CHECKSUMS:
        print(f'    "{name}": "{_game_checksum(name)}",')
    print(f'TPCC_CHECKSUM = "{_tpcc_checksum()}"')
