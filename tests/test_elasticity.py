"""Tests for cloud storage, migration, policies, the eManager, snapshots."""

import pytest

from repro.core import AeonRuntime
from repro.core.errors import MigrationError
from repro.elasticity import (
    CloudStorage,
    EManager,
    MigrationCoordinator,
    ScaleInAction,
    ScaleOutAction,
    SLAPolicy,
    snapshot_context,
)
from repro.elasticity.policies import ClusterSnapshot, ServerReport
from repro.sim import M1_LARGE, M1_SMALL, Server, Simulator

from conftest import Cell, Testbed, Worker, build_group


def make_coordinator(bed):
    storage = CloudStorage(bed.sim)
    host = Server(bed.sim, "~emanager", M1_LARGE)
    bed.network.register(host.name, M1_LARGE)
    return MigrationCoordinator(bed.runtime, storage, host), storage


# ----------------------------------------------------------------------
# CloudStorage
# ----------------------------------------------------------------------
def test_storage_write_read_roundtrip():
    sim = Simulator()
    storage = CloudStorage(sim)

    def body():
        yield storage.write("k", {"v": 1}, size_bytes=100)
        value = yield storage.read("k")
        return value

    assert sim.run_process(body()) == {"v": 1}
    assert storage.writes == 1 and storage.reads == 1


def test_storage_read_races_see_old_value():
    sim = Simulator()
    storage = CloudStorage(sim)
    storage.write("k", "new", size_bytes=10_000_000)  # slow write

    def reader():
        value = yield storage.read("k")
        return value

    assert sim.run_process(reader()) is None  # write not yet durable


def test_storage_delete_and_prefix_listing():
    sim = Simulator()
    storage = CloudStorage(sim)

    def body():
        yield storage.write("m/1", 1)
        yield storage.write("m/2", 2)
        yield storage.write("other", 3)
        yield storage.delete("m/1")

    sim.run_process(body())
    assert storage.keys_with_prefix("m/") == ["m/2"]


# ----------------------------------------------------------------------
# Migration protocol
# ----------------------------------------------------------------------
def test_migration_moves_context(aeon_bed):
    coordinator, storage = make_coordinator(aeon_bed)
    runtime = aeon_bed.runtime
    cell = runtime.create_context(Cell, server=aeon_bed.servers[0], name="mover")
    done = coordinator.migrate("mover", aeon_bed.servers[1])
    aeon_bed.run()
    assert done.triggered and done.ok
    assert runtime.placement["mover"] == aeon_bed.servers[1].name
    record = done.value
    assert record.step == "done"
    assert record.finished_ms is not None
    # WAL cleaned up after completion.
    assert storage.keys_with_prefix("migration/") == []


def test_migration_updates_durable_mapping(aeon_bed):
    coordinator, storage = make_coordinator(aeon_bed)
    runtime = aeon_bed.runtime
    runtime.create_context(Cell, server=aeon_bed.servers[0], name="m2")
    coordinator.migrate("m2", aeon_bed.servers[1])
    aeon_bed.run()
    assert storage.peek("mapping/m2") == aeon_bed.servers[1].name


def test_migration_rejects_bad_arguments(aeon_bed):
    coordinator, _ = make_coordinator(aeon_bed)
    runtime = aeon_bed.runtime
    runtime.create_context(Cell, server=aeon_bed.servers[0], name="fixed")
    with pytest.raises(MigrationError):
        coordinator.migrate("ghost", aeon_bed.servers[1])
    with pytest.raises(MigrationError):
        coordinator.migrate("fixed", aeon_bed.servers[0])  # already there


def test_migration_transfer_time_scales_with_size(aeon_bed):
    coordinator, _ = make_coordinator(aeon_bed)
    runtime = aeon_bed.runtime

    class BigCell(Cell):
        size_bytes = 10_000_000

    runtime.create_context(Cell, server=aeon_bed.servers[0], name="small-ctx")
    runtime.create_context(BigCell, server=aeon_bed.servers[0], name="big-ctx")
    small_done = coordinator.migrate("small-ctx", aeon_bed.servers[1])
    aeon_bed.run()
    big_done = coordinator.migrate("big-ctx", aeon_bed.servers[1])
    aeon_bed.run()
    assert small_done.ok and big_done.ok
    small_time = small_done.value.finished_ms - small_done.value.started_ms
    big_time = big_done.value.finished_ms - big_done.value.started_ms
    assert big_time > small_time + 50  # 10 MB over 0.7 Gbps >> 1 KB


def test_migration_preserves_consistency_under_load(aeon_bed):
    """Events keep completing correctly across a migration (§5.2)."""
    coordinator, _ = make_coordinator(aeon_bed)
    runtime = aeon_bed.runtime
    cell = runtime.create_context(Cell, server=aeon_bed.servers[0], name="hot")
    sim = aeon_bed.sim
    done = []

    def load():
        for _ in range(60):
            done.append(aeon_bed.submit(cell.add(1)))
            yield sim.timeout(0.5)

    migrated = {}

    def migrate():
        yield sim.timeout(10.0)
        handle = coordinator.migrate("hot", aeon_bed.servers[1])
        yield handle
        migrated["ok"] = handle.ok

    sim.process(load())
    sim.process(migrate())
    aeon_bed.run()
    assert migrated["ok"]
    assert all(d.triggered and d.value.error is None for d in done)
    assert runtime.instance_of(cell).value == 60
    runtime.check_history()


def test_migration_blocks_events_only_briefly(aeon_bed):
    """Events targeting the migrating context queue and then proceed."""
    coordinator, _ = make_coordinator(aeon_bed)
    runtime = aeon_bed.runtime
    cell = runtime.create_context(Cell, server=aeon_bed.servers[0], name="pausy")
    handle = coordinator.migrate("pausy", aeon_bed.servers[1])
    during = aeon_bed.submit(cell.add(1))
    aeon_bed.run()
    assert handle.ok and during.triggered
    assert during.value.error is None


# ----------------------------------------------------------------------
# Policies
# ----------------------------------------------------------------------
def snap(reports, mean_latency=5.0, completed=100, contexts=None):
    return ClusterSnapshot(
        now_ms=0.0,
        servers=reports,
        mean_latency_ms=mean_latency,
        p99_latency_ms=mean_latency * 3,
        completed_in_window=completed,
        contexts_by_server=contexts or {},
    )


def test_sla_policy_scales_out_on_violation():
    policy = SLAPolicy(sla_ms=10.0, scale_out_step=2)
    snapshot = snap(
        [ServerReport("s1", 0.9, 3, True)],
        mean_latency=25.0,
        contexts={"s1": ["a", "b", "c"]},
    )
    actions = policy.decide(snapshot)
    assert any(isinstance(a, ScaleOutAction) for a in actions)


def test_sla_policy_scales_in_when_idle():
    policy = SLAPolicy(sla_ms=10.0, min_servers=1)
    snapshot = snap(
        [ServerReport("s1", 0.1, 2, True), ServerReport("s2", 0.05, 0, True)],
        mean_latency=1.0,
        contexts={"s1": ["a", "b"], "s2": []},
    )
    actions = policy.decide(snapshot)
    assert actions == [ScaleInAction(server="s2")]


def test_sla_policy_respects_min_servers():
    policy = SLAPolicy(sla_ms=10.0, min_servers=1)
    snapshot = snap([ServerReport("only", 0.1, 1, True)], mean_latency=1.0,
                    contexts={"only": ["a"]})
    assert policy.decide(snapshot) == []


def test_policy_max_servers_caps_scale_out():
    policy = SLAPolicy(sla_ms=10.0, max_servers=1)
    snapshot = snap([ServerReport("hot", 0.99, 3, True)], mean_latency=25.0,
                    contexts={"hot": ["a", "b", "c"]})
    assert policy.decide(snapshot) == []


# ----------------------------------------------------------------------
# EManager end to end
# ----------------------------------------------------------------------
def test_emanager_scales_out_under_load():
    bed = Testbed(AeonRuntime, n_servers=1)
    bed.cluster.boot_delay_ms = 300.0  # quick boots for the test
    runtime = bed.runtime
    storage = CloudStorage(bed.sim)
    policy = SLAPolicy(sla_ms=3.0, scale_out_step=1, max_servers=4)
    manager = EManager(runtime, storage, policy, M1_SMALL,
                       report_interval_ms=200.0)
    workers = [
        runtime.create_context(Worker, server=bed.servers[0], name=f"load-{i}")
        for i in range(6)
    ]
    manager.start()
    done = []

    def load():
        for i in range(2000):
            # ~8 unit-ms per event at 0.8 ms spacing overloads the single
            # m3.large (2 cores x 2.6 speed ~ 650 events/s capacity).
            done.append(bed.submit(workers[i % len(workers)].crunch(8.0)))
            yield bed.sim.timeout(0.8)

    bed.sim.process(load())
    bed.sim.run(until=4000)
    manager.stop()
    bed.sim.run(until=12000)
    assert len(runtime.cluster.alive_servers()) > 1
    assert manager.migrations_started >= 1
    finished = [d for d in done if d.triggered]
    assert len(finished) == len(done)
    assert all(d.value.error is None for d in finished)


def test_emanager_records_server_series():
    bed = Testbed(AeonRuntime, n_servers=2)
    storage = CloudStorage(bed.sim)
    manager = EManager(bed.runtime, storage, SLAPolicy(sla_ms=10.0), M1_SMALL,
                       report_interval_ms=100.0)
    manager.start()
    bed.sim.run(until=1000)
    manager.stop()
    assert len(manager.server_count_series.points) >= 5
    assert manager.server_count_series.points[0][1] == 2


def test_emanager_crash_recovery_finishes_migration(aeon_bed):
    """§5.3: a recovering eManager completes WAL'd migrations."""
    runtime = aeon_bed.runtime
    storage = CloudStorage(aeon_bed.sim)
    manager = EManager(runtime, storage, SLAPolicy(sla_ms=10.0), M1_LARGE)
    runtime.create_context(Cell, server=aeon_bed.servers[0], name="wal-ctx")
    # Start a migration, crash the manager mid-flight (before transfer).
    handle = manager.coordinator.migrate("wal-ctx", aeon_bed.servers[1])
    aeon_bed.sim.run(until=aeon_bed.sim.now + 13.5)  # past step I, pre-move
    manager.crash()
    assert manager.crashed
    in_flight_keys = storage.keys_with_prefix("migration/")
    if not handle.triggered:
        assert in_flight_keys  # WAL present for the successor
        successor = manager.recover()
        aeon_bed.run()
        assert runtime.placement["wal-ctx"] == aeon_bed.servers[1].name
    else:  # pragma: no cover - timing margin
        assert runtime.placement["wal-ctx"] == aeon_bed.servers[1].name


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------
def test_snapshot_captures_subtree(aeon_bed):
    group, workers, shared = build_group(aeon_bed, n_workers=2, shared_cells=1)
    storage = CloudStorage(aeon_bed.sim)
    for w in workers:
        aeon_bed.run_event(w.bump_all(3))
    done = snapshot_context(aeon_bed.runtime, storage, group)
    aeon_bed.run()
    assert done.ok
    bundle = storage.peek(done.value)
    assert shared[0].cid in bundle
    assert bundle[shared[0].cid]["value"] == 6
    assert workers[0].cid in bundle


def test_snapshot_is_consistent_under_concurrent_writes(aeon_bed):
    """The snapshot reflects a single point in the serial order."""
    group, workers, shared = build_group(aeon_bed, n_workers=2, shared_cells=1,
                                         private_cells=0)
    runtime = aeon_bed.runtime
    storage = CloudStorage(aeon_bed.sim)
    for _ in range(5):
        aeon_bed.submit(workers[0].bump_all())
        aeon_bed.submit(workers[1].bump_all())
    snap_done = snapshot_context(runtime, storage, group)
    for _ in range(5):
        aeon_bed.submit(workers[0].bump_all())
    aeon_bed.run()
    assert snap_done.ok
    bundle = storage.peek(snap_done.value)
    value = bundle[shared[0].cid]["value"]
    # Workers bump the shared cell once each: value is the number of
    # events serialized before the snapshot; it must be a whole count
    # between 0 and 15 and the cell's final value must be 15.
    assert 0 <= value <= 15
    assert runtime.instance_of(shared[0]).value == 15


def test_snapshot_skips_none_state(aeon_bed):
    class Shy(Cell):
        def state_snapshot(self):
            return None

    runtime = aeon_bed.runtime
    parent = runtime.create_context(Worker, server=aeon_bed.servers[0], name="par")
    shy = runtime.create_context(Shy, owners=[parent], server=aeon_bed.servers[0],
                                 name="shy")
    runtime.instance_of(parent).cells.add(shy)
    storage = CloudStorage(aeon_bed.sim)
    done = snapshot_context(runtime, storage, parent)
    aeon_bed.run()
    bundle = storage.peek(done.value)
    assert "shy" not in bundle
    assert "par" in bundle
