"""Failure semantics: fencing epochs, crash-time state loss,
self-healing recovery.

Recovery never peeks the simulator's ground truth and crashes really
drop volatile state; ``fencing``, the one knob
`EManager.enable_fault_tolerance` keeps off by default, adds epochs and
the step-down flush.
"""

import copy
import inspect
from dataclasses import fields

import pytest

from repro.core import AeonRuntime, ContextClass, Sleep, is_retryable
from repro.core.errors import FencedError
from repro.core.ownership import FencingTable
from repro.elasticity import CloudStorage, EManager
from repro.faults import (
    FailureDetector,
    FaultInjector,
    FaultSchedule,
    NetworkPartition,
    ServerCrash,
)
from repro.sim import M3_LARGE
from repro.sim.cluster import Cluster

from conftest import Cell, Testbed, digest


def _bed(n_servers=3):
    bed = Testbed(AeonRuntime, n_servers=n_servers, record_history=False)
    storage = CloudStorage(bed.sim)
    manager = EManager(bed.runtime, storage, None, M3_LARGE)
    detector = FailureDetector(
        bed.sim, bed.network, bed.cluster,
        heartbeat_interval_ms=50.0, lease_ms=160.0, check_interval_ms=25.0,
    )
    return bed, storage, manager, detector


# ----------------------------------------------------------------------
# FencingTable mechanics
# ----------------------------------------------------------------------
def test_fencing_table_fence_grant_and_write_checks():
    table = FencingTable()
    table.track("root", ["root", "root/a"], "s1")
    assert table.epoch("root") == 0 and table.holder("root") == "s1"
    table.check_write("root/a")  # unfenced: no-op

    epoch = table.fence("root")
    assert epoch == 1 and table.is_fenced("root")
    assert table.fence("root") == 1  # idempotent while fenced
    with pytest.raises(FencedError) as exc:
        table.check_write("root/a")
    assert is_retryable(exc.value)
    assert table.rejected == 1

    assert table.grant("root", "s2") == 1
    assert not table.is_fenced("root") and table.holder("root") == "s2"
    table.check_write("root/a")  # granted: writes flow again

    # Epochs only move forward, from wherever they were persisted.
    table.adopt_epoch("root", 5)
    assert table.epoch("root") == 5
    table.adopt_epoch("root", 3)
    assert table.epoch("root") == 5
    assert table.bump_manager() == 1
    assert table.manager_epoch == 1


def test_honest_knobs_default_off():
    # One failure model: fencing is the only switch left, and it is off
    # unless asked for.
    from repro.harness.scenarios import FaultSpec

    assert FaultSpec(kind="crash").fencing is False
    switches = {f.name for f in fields(FaultSpec) if isinstance(f.default, bool)}
    assert switches == {"fencing"}
    params = inspect.signature(EManager.enable_fault_tolerance).parameters
    assert [p for p in params if isinstance(params[p].default, bool)] == ["fencing"]

    bed, _storage, manager, detector = _bed()
    bed.runtime.create_context(Cell, server=bed.servers[0], name="plain")
    manager.enable_fault_tolerance(detector, checkpoint_interval_ms=100.0,
                                   roots=["plain"])
    assert bed.runtime.fencing is None


# ----------------------------------------------------------------------
# Fencing end to end: false declaration, step-down flush, zero loss
# ----------------------------------------------------------------------
def _fenced_partition_bed():
    bed, storage, manager, detector = _bed()
    victim = bed.servers[0]
    cell = bed.runtime.create_context(Cell, server=victim, name="hot")
    manager.enable_fault_tolerance(detector, checkpoint_interval_ms=100.0,
                                   roots=["hot"], fencing=True)
    detector.start()
    # Asymmetric cut: the detector loses the victim, clients still
    # reach it — the split-brain window fencing exists to close.
    schedule = FaultSchedule(
        [NetworkPartition(150.0, 2000.0, (detector.name,), (victim.name,))]
    )
    FaultInjector(bed.sim, bed.network, bed.cluster, schedule).start()
    return bed, storage, manager, detector, victim, cell


def test_fencing_rejects_stale_owner_and_loses_no_acked_writes():
    bed, storage, manager, detector, victim, cell = _fenced_partition_bed()
    runtime, sim = bed.runtime, bed.sim

    done = [bed.submit(cell.add(1)) for _ in range(5)]
    sim.run(until=140.0)
    assert all(d.value.error is None for d in done)

    # Declaration (~150 + lease 160 + check 25) fences the root; a
    # write hitting the still-reachable old owner during the grace
    # window is rejected, not silently acked-then-rolled-back.
    sim.run(until=400.0)
    assert detector.detections and runtime.fencing.is_fenced("hot")
    fenced = bed.submit(cell.add(1))
    sim.run(until=430.0)
    assert fenced.triggered and isinstance(fenced.value.error, FencedError)
    assert is_retryable(fenced.value.error)
    assert runtime.fencing.rejected >= 1

    # The fenced owner's step-down flush reached cloud storage: the
    # restore is byte-fresh, nothing acked was lost, and the flush is
    # durable evidence the declaration was false.
    sim.run(until=1200.0)
    assert manager.flush_restores == 1
    assert manager.false_detections == 1
    assert runtime.writes_rolled_back == 0
    assert runtime.placement["hot"] != victim.name
    assert runtime.instance_of("hot").value == 5
    assert manager.recovery_log[0]["flushed_roots"] == 1
    assert not runtime.fencing.is_fenced("hot")
    assert runtime.fencing.holder("hot") == runtime.placement["hot"]
    assert storage.peek("fencing/hot") == runtime.fencing.epoch("hot")

    after = bed.submit(cell.add(2))
    sim.run(until=1500.0)
    assert after.value.error is None
    assert runtime.instance_of("hot").value == 7
    detector.stop()
    manager.stop()


def test_fencing_recovery_never_peeks_ground_truth(monkeypatch):
    # Acceptance: no recovery or checkpoint path may consult the
    # simulator's omniscient liveness — the cluster's list of live
    # servers explodes if anything asks for it.
    def boom(self):
        raise AssertionError(
            "ground-truth aliveness consulted in a fencing run"
        )

    monkeypatch.setattr(Cluster, "alive_servers", boom)
    bed, _storage, manager, detector, victim, cell = _fenced_partition_bed()
    [bed.submit(cell.add(1)) for _ in range(4)]
    bed.sim.run(until=1500.0)
    detector.stop()
    manager.stop()
    # The full declare → fence → flush → restore → grant pipeline ran
    # to completion without ever touching the accessor.
    assert manager.contexts_recovered == 1
    assert bed.runtime.placement["hot"] != victim.name
    assert bed.runtime.instance_of("hot").value == 4


class Bag(ContextClass):
    """A context with a mutable field."""

    def __init__(self):
        self.items = [1]


def test_step_down_flush_does_not_alias_live_state():
    # The flush is the durable image a restore rolls back to: a later
    # in-place mutation of the live context must not reach into it.
    bed, storage, manager, _detector = _bed()
    runtime, sim = bed.runtime, bed.sim
    victim = bed.servers[1]
    runtime.create_context(Bag, server=victim, name="bag")
    sim.run_process(manager._step_down_flush(victim.name, ["bag"]))
    image = copy.deepcopy(storage.peek("fence-flush/bag"))
    assert image
    runtime.instance_of("bag").items.append(2)
    assert storage.peek("fence-flush/bag") == image


# ----------------------------------------------------------------------
# Crash realism: state dies at crash time, restarts rehydrate
# ----------------------------------------------------------------------
def test_fast_restart_rehydrates_from_checkpoint_not_memory():
    # A restart *faster than the declaration* must not behave like an
    # OS blip whose memory survived: post-checkpoint writes die with the
    # host and the restart rolls back to durable state — a declaration
    # racing the restart finds nothing left to resurrect either way.
    bed, storage, manager, detector = _bed()
    runtime, sim = bed.runtime, bed.sim
    victim = bed.servers[1]
    cell = runtime.create_context(Cell, server=victim, name="hot")
    manager.enable_fault_tolerance(detector, checkpoint_interval_ms=100.0,
                                   roots=["hot"])
    detector.start()
    schedule = FaultSchedule(
        [ServerCrash(150.0, victim.name, restart_after_ms=60.0)]
    )
    FaultInjector(sim, bed.network, bed.cluster, schedule).start()

    # Five increments land before the t=100 checkpoint, three after.
    done = [bed.submit(cell.add(1)) for _ in range(5)]
    sim.run(until=120.0)
    assert all(d.value.error is None for d in done)
    assert storage.peek("checkpoint/hot")["hot"]["value"] == 5
    done = [bed.submit(cell.add(1)) for _ in range(3)]
    sim.run(until=149.0)
    assert runtime.instance_of("hot").value == 8

    # Restart at t=210 beats the lease: no declaration — but the three
    # post-checkpoint writes are gone, accounted as rolled back.
    sim.run(until=600.0)
    assert not detector.detections
    assert manager.rehydrations == 1
    assert runtime.writes_rolled_back == 3
    assert runtime.placement["hot"] == victim.name
    assert runtime.instance_of("hot").value == 5
    assert not runtime.instance_of("hot")._aeon_state_dropped

    after = bed.submit(cell.add(1))
    sim.run(until=800.0)
    assert after.value.error is None
    assert runtime.instance_of("hot").value == 6
    detector.stop()
    manager.stop()


@pytest.mark.parametrize("restart_after_ms", [None, 60.0],
                         ids=["declared", "fast_restart"])
def test_context_no_checkpoint_covers_serves_after_its_host_crash(restart_after_ms):
    # A context outside every checkpoint root has nothing durable to
    # come back from; whether a declared recovery re-places it or a fast
    # restart finds it at home, it must serve its next event.
    bed, storage, manager, detector = _bed()
    runtime, sim = bed.runtime, bed.sim
    victim = bed.servers[1]
    manager.enable_fault_tolerance(detector, checkpoint_interval_ms=100.0,
                                   roots=[])
    orphan = runtime.create_context(Cell, server=victim, name="orphan")
    detector.start()
    schedule = FaultSchedule(
        [ServerCrash(150.0, victim.name, restart_after_ms=restart_after_ms)]
    )
    FaultInjector(sim, bed.network, bed.cluster, schedule).start()
    bed.submit(orphan.add(1))
    sim.run(until=1500.0)
    assert manager.contexts_restored_without_checkpoint == 1
    assert (runtime.placement["orphan"] == victim.name) == bool(restart_after_ms)
    assert not runtime.instance_of("orphan")._aeon_state_dropped

    after = bed.submit(orphan.add(1))
    sim.run(until=3000.0)
    assert after.value.error is None
    detector.stop()
    manager.stop()


class SlowCell(Cell):
    def add_slowly(self, delta):
        self.value += delta
        yield Sleep(100.0)
        return self.value


def test_write_the_crash_killed_is_not_lost_work():
    # Lost work is acked writes the rollback discarded.  An event that
    # wrote the context and was still running when its host crashed
    # never reached its client: the rollback must not count its write.
    bed = Testbed(AeonRuntime, n_servers=3, record_history=True)
    storage = CloudStorage(bed.sim)
    manager = EManager(bed.runtime, storage, None, M3_LARGE)
    detector = FailureDetector(
        bed.sim, bed.network, bed.cluster,
        heartbeat_interval_ms=50.0, lease_ms=160.0, check_interval_ms=25.0,
    )
    runtime, sim = bed.runtime, bed.sim
    victim = bed.servers[1]
    cell = runtime.create_context(SlowCell, server=victim, name="slow")
    manager.enable_fault_tolerance(detector, checkpoint_interval_ms=100.0,
                                   roots=["slow"])
    detector.start()
    FaultInjector(sim, bed.network, bed.cluster,
                  FaultSchedule([ServerCrash(150.0, victim.name)])).start()

    for _ in range(2):
        bed.submit(cell.add(1))
    sim.run(until=120.0)
    assert storage.peek("checkpoint/slow")["slow"]["__version__"] == 2
    acked = bed.submit(cell.add(1))
    sim.run(until=135.0)
    assert acked.value.error is None
    killed = bed.submit(cell.add_slowly(1))  # v4, mid-sleep at the crash
    sim.run(until=2000.0)
    assert killed.value.error is not None
    assert manager.contexts_recovered == 1
    assert runtime.writes_rolled_back == 1  # the acked v3 only
    assert runtime.check_history() == 1
    detector.stop()
    manager.stop()


# ----------------------------------------------------------------------
# eManager failover: durable epochs, fenced WAL appends, re-driven
# restores, never-reused migration ids
# ----------------------------------------------------------------------
def test_fencing_epochs_survive_emanager_failover():
    bed, storage, manager, detector, victim, cell = _fenced_partition_bed()
    sim = bed.sim
    bed.submit(cell.add(1))
    sim.run(until=1200.0)  # declare → fence → flush → restore → grant
    root_epoch = bed.runtime.fencing.epoch("hot")
    assert root_epoch >= 1
    assert storage.peek("fencing/hot") == root_epoch

    manager.crash()
    successor = manager.recover()
    sim.run(until=sim.now + 50.0)  # land the fencing/manager write
    assert storage.peek("fencing/manager") == 1

    # Model a successor with a cold cache: wipe the in-memory table and
    # make enable_fault_tolerance rebuild it from durable state alone.
    old_table = bed.runtime.fencing
    bed.runtime.fencing = None
    successor.enable_fault_tolerance(detector, checkpoint_interval_ms=100.0,
                                     roots=["hot"], fencing=True)
    assert bed.runtime.fencing is not old_table
    assert bed.runtime.fencing.epoch("hot") == root_epoch
    assert bed.runtime.fencing.manager_epoch == 1
    assert successor.coordinator.acting_epoch == 1
    detector.stop()
    successor.stop()


def test_predecessor_wal_appends_are_fenced_after_failover():
    # Split-brain *manager*: the predecessor is partitioned, not dead —
    # recover() is called without crash().  Once the bumped manager
    # epoch lands in storage, the predecessor's WAL appends fence.
    bed, _storage, manager, detector = _bed()
    runtime, sim = bed.runtime, bed.sim
    runtime.create_context(Cell, server=bed.servers[0], name="mover")
    manager.enable_fault_tolerance(detector, checkpoint_interval_ms=100.0,
                                   roots=["mover"], fencing=True)
    assert manager.coordinator.acting_epoch == 0

    successor = manager.recover()
    sim.run(until=sim.now + 50.0)
    assert successor.coordinator.acting_epoch == 1

    stale = manager.coordinator.migrate("mover", bed.servers[1])
    sim.run(until=sim.now + 500.0)
    assert stale.triggered and not stale.ok
    assert manager.coordinator.fenced_appends >= 1
    assert runtime.placement["mover"] == bed.servers[0].name  # no effect

    fresh = successor.coordinator.migrate("mover", bed.servers[1])
    sim.run(until=sim.now + 500.0)
    assert fresh.ok
    assert runtime.placement["mover"] == bed.servers[1].name
    detector.stop()
    manager.stop()
    successor.stop()


def test_crashed_manager_ignores_the_failure_detector():
    # Fail-stop: once crashed, the manager must not act on declarations
    # — no recovery, no fencing write nobody will grant, no restore WAL
    # record its halted coordinator leaves stuck at "prepared".
    bed, storage, manager, detector = _bed()
    runtime, sim = bed.runtime, bed.sim
    victim = bed.servers[0]
    runtime.create_context(Cell, server=victim, name="hot")
    manager.enable_fault_tolerance(detector, checkpoint_interval_ms=100.0,
                                   roots=["hot"], fencing=True)
    detector.start()
    FaultInjector(
        sim, bed.network, bed.cluster,
        FaultSchedule([ServerCrash(150.0, victim.name, restart_after_ms=600.0)]),
    ).start()
    sim.run(until=120.0)
    manager.crash()
    sim.run(until=1500.0)
    detector.stop()

    assert detector.detections  # the victim was declared
    assert manager.recoveries == 0
    assert storage.keys_with_prefix("migration/") == []
    assert storage.peek("fencing/hot") is None
    assert not runtime.fencing.is_fenced("hot")
    assert runtime.placement["hot"] == victim.name


def test_failover_redrives_half_done_restore_with_fresh_id():
    # The manager dies mid-restore.  The successor must (a) seed its
    # migration counter past the half-done restore's id — a drain
    # during failover can never double-assign it — and (b) re-drive the
    # restore from its WAL journal instead of stalling until the
    # detector re-declares the victim.
    bed, storage, manager, detector = _bed()
    runtime, sim = bed.runtime, bed.sim
    victim = bed.servers[1]
    cell = runtime.create_context(Cell, server=victim, name="hot")
    manager.enable_fault_tolerance(detector, checkpoint_interval_ms=100.0,
                                   roots=["hot"])
    detector.start()
    FaultInjector(
        sim, bed.network, bed.cluster,
        FaultSchedule([ServerCrash(150.0, victim.name)]),
    ).start()
    done = [bed.submit(cell.add(1)) for _ in range(5)]
    sim.run(until=120.0)
    assert all(d.value.error is None for d in done)

    # Step until the declared recovery's WAL record exists but is not
    # yet past the state push ("moved" would make re-driving unsafe).
    walled = None
    while sim.now < 2000.0 and walled is None:
        sim.run(until=sim.now + 2.0)
        for key in storage.keys_with_prefix("migration/"):
            payload = storage.peek(key)
            if payload and payload.get("kind") == "restore" \
                    and payload.get("step") == "prepared":
                walled = dict(payload)
    assert walled is not None, "never caught the restore mid-flight"
    stale_id = int(walled["migration_id"])

    manager.crash()
    successor = manager.recover()
    assert successor._pending_restores  # journaled for re-drive
    successor.enable_fault_tolerance(detector, checkpoint_interval_ms=100.0,
                                     roots=["hot"])
    sim.run(until=sim.now + 1500.0)
    detector.stop()
    successor.stop()

    assert successor.contexts_recovered >= 1
    assert runtime.placement["hot"] != victim.name
    assert runtime.instance_of("hot").value == 5
    assert storage.keys_with_prefix("migration/") == []  # WAL retired
    ids = [r.migration_id for r in successor.coordinator.records]
    assert ids and len(set(ids)) == len(ids)
    assert min(ids) > stale_id  # the stale id is never reused


# ----------------------------------------------------------------------
# The split_brain scenario: invariant + determinism
# ----------------------------------------------------------------------
def test_split_brain_invariant_and_determinism(recorded_histories):
    from repro.harness.scenarios import get_scenario, run_point

    spec = get_scenario("split_brain").with_(duration_ms=6000.0)
    fenced = run_point(spec=spec, system="aeon", fencing=True)
    unfenced = run_point(spec=spec, system="aeon", fencing=False)

    # The headline invariant: fencing turns lost updates into rejected
    # (retryable) writes; without it the same partition silently rolls
    # back acked work.
    assert fenced["lost_updates"] == 0
    assert fenced["fenced_writes"] > 0
    assert fenced["flush_restores"] >= 1
    assert unfenced["lost_updates"] > 0
    assert unfenced["fenced_writes"] == 0
    assert fenced["false_detections"] >= 1  # learned from the flush

    # The checker, independent of the counter the rollback increments:
    # no hard violation either way, and it finds exactly the writes the
    # unfenced restore discarded.
    fenced_history, unfenced_history = recorded_histories
    assert fenced_history.check() == 0
    assert unfenced_history.check() == unfenced["lost_updates"]

    # Both partition run dicts, byte for byte (key order included):
    # the determinism pin.
    assert digest(fenced) == (
        "b627fe6f6219e57f7e3f7d7ba92b07d7a5eba1b6e043405d42844a7cf2c08aec"
    )
    assert digest(unfenced) == (
        "79d90ef364104c49403737eefbf4fef04dae57ba9af6563a7b34356ce33626d4"
    )


# ----------------------------------------------------------------------
# The partition_recovery scenario: invariant + determinism
# ----------------------------------------------------------------------
def test_partition_recovery_invariant_and_determinism():
    from repro.harness.scenarios import get_scenario, run_point

    spec = get_scenario("partition_recovery").with_(duration_ms=6000.0)
    run = run_point(spec=spec, system="aeon")

    # The cut heals mid-recovery: a live server was declared dead (a
    # false detection), the flush restored its contexts, and no acked
    # write is lost.
    assert run["lost_updates"] == 0
    assert run["flush_restores"] >= 1
    assert run["false_detections"] >= 1
    assert run["partition_at_ms"] < run["partition_heal_ms"]

    # The run dict, byte for byte (key order included).
    assert digest(run) == (
        "ac4d4e265334eb28f068d2bdb32d3f91d0011b9f90f78fc7c980028b9b929a83"
    )
