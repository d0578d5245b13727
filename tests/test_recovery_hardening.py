"""Recovery-path hardening: drain robustness, WAL id seeding, draining
target exclusion, incremental (delta) checkpoints, and detector-driven
client location-cache invalidation."""

import pytest

import repro.elasticity.snapshot as snapshot_module
from repro.baselines import EventWaveRuntime, OrleansRuntime
from repro.core import AeonRuntime
from repro.core.locking import acquire
from repro.core.errors import MigrationError, is_retryable
from repro.elasticity import (
    CloudStorage,
    DeltaCheckpointer,
    EManager,
    MigrationCoordinator,
    MigrationRecord,
    ScaleInAction,
    read_checkpoint,
    snapshot_context,
)
from repro.faults import FailureDetector, FaultInjector, FaultSchedule, ServerCrash
from repro.sim import M3_LARGE, RngRegistry

from conftest import (
    Cell,
    Testbed,
    Worker,
    check_client_forgets_cached_location_on_delivery_failure,
)


class ScriptedPolicy:
    """Replays a fixed action list on every decide() call."""

    def __init__(self, actions):
        self.actions = actions

    def decide(self, snapshot):
        return list(self.actions)


class FakeDetector:
    """Minimal duck-typed detector for wiring tests."""

    def __init__(self):
        self.failure_callbacks = []

    def on_failure(self, callback):
        self.failure_callbacks.append(callback)

    def declare(self, name):
        for callback in self.failure_callbacks:
            callback(name)


def _bed_with_manager(n_servers=3, policy=None, report_interval_ms=100.0):
    bed = Testbed(AeonRuntime, n_servers=n_servers, record_history=False)
    storage = CloudStorage(bed.sim)
    manager = EManager(
        bed.runtime, storage, policy, M3_LARGE,
        report_interval_ms=report_interval_ms,
    )
    return bed, storage, manager


# ----------------------------------------------------------------------
# Bugfix 1: a failed drain migration must not kill the control loop
# ----------------------------------------------------------------------
def test_drain_survives_failed_migration_and_retries(monkeypatch):
    victim_name = None
    bed, storage, manager = _bed_with_manager(
        policy=None, report_interval_ms=100.0
    )
    runtime = bed.runtime
    victim = bed.servers[1]
    victim_name = victim.name
    for name in ("a", "b"):
        runtime.create_context(Cell, server=victim, name=name)
    manager.policy = ScriptedPolicy([ScaleInAction(server=victim_name)])

    original = manager.coordinator.migrate
    fails = {"a": 1}

    def flaky(cid, dst):
        if fails.get(cid):
            fails[cid] -= 1
            raise MigrationError("victim concurrently moved")
        return original(cid, dst)

    monkeypatch.setattr(manager.coordinator, "migrate", flaky)
    manager.start()
    bed.sim.run(until=150.0)
    # Round 1 drained "b" but skipped the failing "a": the loop is still
    # alive, the flag is clear, and the server was NOT decommissioned.
    assert runtime.placement["b"] != victim_name
    assert runtime.placement["a"] == victim_name
    assert victim_name in runtime.cluster.servers
    assert manager._draining == {}
    # Round 2 (the script re-issues ScaleIn) finishes the job.
    bed.sim.run(until=1000.0)
    manager.stop()
    assert runtime.placement["a"] != victim_name
    assert victim_name not in runtime.cluster.servers
    assert manager._draining == {}


def test_drain_survives_mid_flight_failure_and_loop_stays_alive():
    bed, storage, manager = _bed_with_manager(report_interval_ms=100.0)
    runtime = bed.runtime
    victim = bed.servers[1]
    runtime.create_context(Cell, server=victim, name="stuck")
    manager.policy = ScriptedPolicy([ScaleInAction(server=victim.name)])

    def doomed(cid, dst):
        signal = bed.sim.signal(name="doomed-migration")
        bed.sim.schedule(
            1.0, signal.fail, MigrationError("target died mid-drain")
        )
        return signal

    manager.coordinator.migrate = doomed
    manager.start()
    bed.sim.run(until=550.0)
    ticks_so_far = len(manager.server_count_series.points)
    bed.sim.run(until=1050.0)
    manager.stop()
    # The loop kept ticking after every drain round failed mid-flight...
    assert len(manager.server_count_series.points) > ticks_so_far >= 4
    # ...the victim still hosts its context and was not decommissioned.
    assert runtime.placement["stuck"] == victim.name
    assert victim.name in runtime.cluster.servers
    assert manager._draining == {}


# ----------------------------------------------------------------------
# Bugfix 2: eManager recovery must seed the migration-id counter
# ----------------------------------------------------------------------
def test_recovered_manager_does_not_reuse_live_migration_ids():
    bed, storage, manager = _bed_with_manager()
    runtime = bed.runtime
    runtime.create_context(Cell, server=bed.servers[0], name="walled")
    runtime.create_context(Cell, server=bed.servers[0], name="fresh")
    handle = manager.coordinator.migrate("walled", bed.servers[1])
    resumed_id = manager.coordinator.records[0].migration_id
    bed.sim.run(until=13.5)  # past step I, before the move
    manager.crash()
    assert not handle.triggered
    assert storage.keys_with_prefix("migration/")  # WAL present

    successor = manager.recover()
    # The successor's counter starts past every id the WAL has seen, so
    # a fresh migration cannot collide with the resumed one.
    assert successor.coordinator._counter >= resumed_id
    fresh = successor.coordinator.migrate("fresh", bed.servers[1])
    fresh_record = successor.coordinator.records[-1]
    assert fresh_record.migration_id > resumed_id
    bed.run()
    assert handle.triggered or True  # old handle belongs to the corpse
    assert fresh.triggered and fresh.ok
    assert runtime.placement["walled"] == bed.servers[1].name
    assert runtime.placement["fresh"] == bed.servers[1].name
    # Both WAL records were cleaned up under their distinct keys.
    assert storage.keys_with_prefix("migration/") == []


def test_adopt_wal_resumes_migrations_and_hands_back_restores():
    bed = Testbed(AeonRuntime, n_servers=3, record_history=False)
    runtime, sim = bed.runtime, bed.sim
    storage = CloudStorage(sim)
    for name in ("moving", "lost", "fresh"):
        runtime.create_context(Cell, server=bed.servers[0], name=name)
    src, dst = bed.servers[0].name, bed.servers[1].name
    migrate = MigrationRecord(3, "moving", src, dst, step="stopped")
    restore = MigrationRecord(7, "lost", src, dst, step="prepared", kind="restore")
    for record in (migrate, restore):
        storage.write(f"migration/{record.migration_id}", record.as_payload())
    sim.run(until=sim.now + 10.0)

    coordinator = MigrationCoordinator(runtime, storage, bed.servers[2])
    assert coordinator.adopt_wal() == [restore.as_payload()]
    # Restore ids seed the counter too: a fresh id never reuses 7.
    fresh = coordinator.migrate("fresh", bed.servers[1])
    assert coordinator.records[-1].migration_id > restore.migration_id
    sim.run(until=sim.now + 500.0)
    assert fresh.ok
    assert runtime.placement["moving"] == dst  # the migrate record completed
    assert runtime.placement["lost"] == src  # re-driving a restore is the caller's
    assert storage.keys_with_prefix("migration/") == ["migration/7"]


# ----------------------------------------------------------------------
# Bugfix 3: draining servers are not drain/recovery targets
# ----------------------------------------------------------------------
def test_drain_excludes_draining_targets():
    bed, storage, manager = _bed_with_manager(n_servers=3)
    runtime = bed.runtime
    src, other = bed.servers[1], bed.servers[2]
    for i in range(3):
        runtime.create_context(Cell, server=src, name=f"mv-{i}")
    # A concurrent ScaleIn is already draining the other server.
    manager._draining[other.name] = True
    bed.sim.process(manager._drain_and_remove(src.name))
    bed.run()
    manager._draining.pop(other.name, None)
    for i in range(3):
        assert runtime.placement[f"mv-{i}"] == bed.servers[0].name
    assert src.name not in runtime.cluster.servers


def test_recovery_excludes_draining_targets():
    bed, storage, manager = _bed_with_manager(n_servers=3)
    runtime = bed.runtime
    victim, draining = bed.servers[1], bed.servers[2]
    for i in range(4):
        runtime.create_context(Cell, server=victim, name=f"lost-{i}")
    detector = FakeDetector()
    manager.enable_fault_tolerance(detector, checkpoint_interval_ms=0.0)
    manager._draining[draining.name] = True
    victim.crash()
    detector.declare(victim.name)
    bed.run()
    assert manager.contexts_recovered == 4
    for i in range(4):
        # Everything re-placed on the one server that is neither dead
        # nor being drained.
        assert runtime.placement[f"lost-{i}"] == bed.servers[0].name


# ----------------------------------------------------------------------
# Delta checkpoints: chain mechanics and recovery equivalence
# ----------------------------------------------------------------------
def _churny_crash_run(checkpoint_mode):
    """One crash/recovery run with skewed writes; returns the outcome."""
    bed = Testbed(AeonRuntime, n_servers=3, record_history=False)
    runtime, sim = bed.runtime, bed.sim
    storage = CloudStorage(sim)
    manager = EManager(runtime, storage, None, M3_LARGE)
    detector = FailureDetector(
        bed.sim, bed.network, bed.cluster,
        heartbeat_interval_ms=50.0, lease_ms=160.0, check_interval_ms=25.0,
    )
    victim = bed.servers[1]
    worker = runtime.create_context(Worker, server=victim, name="w")
    cells = []
    for i in range(4):
        cell = runtime.create_context(
            Cell, owners=[worker], server=victim, name=f"c{i}"
        )
        runtime.instance_of("w").cells.add(cell)
        cells.append(cell)
    manager.enable_fault_tolerance(
        detector, checkpoint_interval_ms=100.0, roots=["w"],
        checkpoint_mode=checkpoint_mode,
    )
    detector.start()
    FaultInjector(
        sim, bed.network, bed.cluster,
        FaultSchedule([ServerCrash(1000.0, victim.name)]),
    ).start()
    # Skewed write traffic: only c0 is ever touched.
    for tick in range(9):
        done = bed.submit(cells[0].add(1))
        sim.run(until=(tick + 1) * 100.0 - 50.0)
        assert done.value.error is None
    sim.run(until=2500.0)
    detector.stop()
    manager.stop()
    return {
        "states": {f"c{i}": runtime.instance_of(f"c{i}").value for i in range(4)},
        "placement": runtime.placement["c0"],
        "bytes": manager.checkpoint_bytes_written,
        "taken": manager.checkpoints_taken,
        "skipped": manager.checkpoints_skipped,
        "recovered": manager.contexts_recovered,
        "checkpoint_keys": storage.keys_with_prefix("checkpoint/"),
    }


def test_delta_chain_recovery_matches_full_bundle_recovery():
    full = _churny_crash_run("full")
    delta = _churny_crash_run("delta")
    # Recovery from a base + delta chain restores state identical to
    # recovery from a rolling full bundle.
    assert delta["states"] == full["states"]
    assert delta["placement"] == full["placement"]
    assert delta["recovered"] == full["recovered"] == 5
    # The skewed run cut checkpoint bytes by far more than half...
    assert delta["bytes"] <= 0.5 * full["bytes"]
    # ...because unchanged members were skipped and whole intervals with
    # no version movement wrote nothing at all.
    assert delta["skipped"] > 0 and full["skipped"] == 0
    # The chain is bounded: base + at most MAX_CHAIN delta keys.
    assert full["checkpoint_keys"] == ["checkpoint/w"]
    deltas = [k for k in delta["checkpoint_keys"] if "/delta/" in k]
    assert 1 <= len(deltas) <= DeltaCheckpointer.MAX_CHAIN


def test_delta_checkpointer_rebases_and_reassembles():
    bed = Testbed(AeonRuntime, n_servers=2, record_history=False)
    runtime, sim = bed.runtime, bed.sim
    storage = CloudStorage(sim)
    worker = runtime.create_context(Worker, server=bed.servers[0], name="root")
    cells = []
    for i in range(3):
        cell = runtime.create_context(
            Cell, owners=[worker], server=bed.servers[0], name=f"leaf{i}"
        )
        runtime.instance_of("root").cells.add(cell)
        cells.append(cell)
    checkpointer = DeltaCheckpointer(runtime, storage, "root", key="checkpoint/root")

    def tick(expected_kind):
        done = checkpointer.checkpoint()
        sim.run(until=sim.now + 50.0)
        assert done.triggered and done.value == expected_kind

    assert DeltaCheckpointer.MAX_CHAIN == 6
    tick("base")  # first bundle is always a base
    tick("skip")  # nothing moved: nothing written
    bed.run_event(cells[0].add(1))
    tick("delta")  # only leaf0 shipped
    for _ in range(4):
        bed.run_event(cells[1].add(1))
        tick("delta")
    bed.run_event(cells[1].add(1))
    tick("delta")  # chain now at MAX_CHAIN
    bed.run_event(cells[2].add(7))
    tick("base")  # bounded chain: periodic re-base
    assert checkpointer.bases_written == 2
    assert checkpointer.deltas_written == 6
    assert checkpointer.skipped == 1

    def assemble():
        states = yield from read_checkpoint(storage, "checkpoint/root")
        return states

    states = sim.run_process(assemble())
    assert states["leaf0"]["value"] == 1
    assert states["leaf1"]["value"] == 5
    assert states["leaf2"]["value"] == 7
    # Stale delta keys from before the re-base survive in storage but
    # are ignored by reassembly (their seq predates the new base).
    assert storage.keys_with_prefix("checkpoint/root/delta/") != []

    bed.run_event(cells[0].add(10))
    tick("delta")  # a fresh chain on top of the new base
    states = sim.run_process(assemble())
    assert states["leaf0"]["value"] == 11


def test_successor_checkpointer_seeds_seq_past_stale_bundles():
    bed = Testbed(AeonRuntime, n_servers=2, record_history=False)
    runtime, sim = bed.runtime, bed.sim
    storage = CloudStorage(sim)
    worker = runtime.create_context(Worker, server=bed.servers[0], name="r")
    cell = runtime.create_context(
        Cell, owners=[worker], server=bed.servers[0], name="c"
    )
    runtime.instance_of("r").cells.add(cell)
    first = DeltaCheckpointer(runtime, storage, "r", key="checkpoint/r")
    first.checkpoint()
    sim.run(until=sim.now + 50.0)
    bed.run_event(cell.add(3))
    first.checkpoint()
    sim.run(until=sim.now + 50.0)
    stale_delta_seq = storage.peek("checkpoint/r/delta/1")["seq"]

    # A successor (fresh manager after recover()) starts a new chain: its
    # first base must outrank the surviving stale delta, or reassembly
    # would wrongly overlay it.
    bed.run_event(cell.add(4))  # value now 7
    successor = DeltaCheckpointer(runtime, storage, "r", key="checkpoint/r")
    done = successor.checkpoint()
    sim.run(until=sim.now + 50.0)
    assert done.value == "base"
    assert storage.peek("checkpoint/r")["seq"] > stale_delta_seq

    def assemble():
        states = yield from read_checkpoint(storage, "checkpoint/r")
        return states

    assert sim.run_process(assemble())["c"]["value"] == 7


@pytest.fixture
def snapshot_eids(monkeypatch):
    """The eids of every lock a snapshot event acquires."""
    eids = []

    def recording_acquire(sim, table, cid, event):
        if event.eid <= -1_000_000:  # the synthetic snapshot id space
            eids.append(event.eid)
        return acquire(sim, table, cid, event)

    monkeypatch.setattr(snapshot_module, "acquire", recording_acquire)
    return eids


CAPTURE_RULE = [(AeonRuntime, True), (EventWaveRuntime, True), (OrleansRuntime, False)]


@pytest.mark.parametrize("checkpoint_mode", ["full", "delta"])
@pytest.mark.parametrize("runtime_cls, locked", CAPTURE_RULE)
def test_checkpoint_capture_follows_the_runtime(
    snapshot_eids, runtime_cls, locked, checkpoint_mode
):
    # Subtree-locked capture needs the global lock order that enforced
    # ownership gives; an Orleans runtime (no such order) checkpoints
    # per grain and never takes a lock for its snapshot event.
    bed = Testbed(runtime_cls, n_servers=2, record_history=False)
    runtime, sim = bed.runtime, bed.sim
    cell = runtime.create_context(Cell, server=bed.servers[0], name="r")
    bed.run_event(cell.add(2))
    storage = CloudStorage(sim)
    manager = EManager(runtime, storage, None, M3_LARGE)
    manager.enable_fault_tolerance(
        FakeDetector(), checkpoint_interval_ms=100.0, roots=["r"],
        checkpoint_mode=checkpoint_mode,
    )
    sim.run(until=sim.now + 150.0)
    manager.stop()
    assert manager.checkpoints_taken == 1
    assert bool(snapshot_eids) is locked

    def assemble():
        states = yield from read_checkpoint(storage, "checkpoint/r")
        return states

    assert sim.run_process(assemble())["r"]["value"] == 2


@pytest.mark.parametrize("runtime_cls, locked", CAPTURE_RULE)
def test_snapshot_context_capture_follows_the_runtime(
    snapshot_eids, runtime_cls, locked
):
    # An explicit snapshot obeys the same rule as periodic checkpoints.
    bed = Testbed(runtime_cls, n_servers=2, record_history=False)
    runtime, sim = bed.runtime, bed.sim
    cell = runtime.create_context(Cell, server=bed.servers[0], name="r")
    bed.run_event(cell.add(2))
    storage = CloudStorage(sim)
    done = snapshot_context(runtime, storage, cell, key="snap/r")
    sim.run(until=sim.now + 50.0)
    assert done.value == "snap/r"
    assert storage.peek("snap/r")["r"]["value"] == 2
    assert bool(snapshot_eids) is locked


# ----------------------------------------------------------------------
# Detector-driven client location-cache invalidation
# ----------------------------------------------------------------------
def test_invalidate_cached_locations_drops_matching_entries_only():
    bed = Testbed(AeonRuntime, n_servers=2, record_history=False)
    runtime = bed.runtime
    runtime.create_context(Cell, server=bed.servers[0], name="on-0")
    runtime.create_context(Cell, server=bed.servers[1], name="on-1")
    client = bed.client
    assert client.locate("on-0") == bed.servers[0].name
    assert client.locate("on-1") == bed.servers[1].name
    dropped = runtime.invalidate_cached_locations(bed.servers[0].name)
    assert dropped == 1
    assert client.invalidate_server(bed.servers[0].name) == 0
    assert "on-0" not in client._cache
    assert client._cache["on-1"] == bed.servers[1].name


def test_detector_declaration_push_invalidates_client_caches():
    bed = Testbed(AeonRuntime, n_servers=3, record_history=False)
    runtime, sim = bed.runtime, bed.sim
    storage = CloudStorage(sim)
    manager = EManager(runtime, storage, None, M3_LARGE)
    detector = FailureDetector(
        bed.sim, bed.network, bed.cluster,
        heartbeat_interval_ms=50.0, lease_ms=160.0, check_interval_ms=25.0,
    )
    victim = bed.servers[1]
    cell = runtime.create_context(Cell, server=victim, name="watched")
    manager.enable_fault_tolerance(detector, checkpoint_interval_ms=100.0,
                                   roots=["watched"])
    detector.start()
    done = bed.submit(cell.add(1))
    sim.run(until=100.0)
    assert done.value.error is None
    assert bed.client._cache["watched"] == victim.name
    FaultInjector(
        sim, bed.network, bed.cluster,
        FaultSchedule([ServerCrash(150.0, victim.name)]),
    ).start()
    sim.run(until=1000.0)
    detector.stop()
    manager.stop()
    # The declaration push-invalidated the stale entry (and recovery
    # re-placed the context), so the next submit resolves fresh and
    # succeeds without a detour through the corpse.
    assert manager.cache_invalidations >= 1
    cached = bed.client._cache.get("watched")
    assert cached != victim.name
    after = bed.submit(cell.add(2))
    sim.run(until=1500.0)
    assert after.value.error is None
    assert bed.client._cache["watched"] == runtime.placement["watched"]


def test_client_forgets_cached_location_on_delivery_failure():
    check_client_forgets_cached_location_on_delivery_failure(AeonRuntime)


def test_orleans_client_forgets_cached_location_on_delivery_failure():
    check_client_forgets_cached_location_on_delivery_failure(OrleansRuntime)