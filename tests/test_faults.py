"""Tests for repro.faults: schedules, injection, detection, recovery."""

import pytest

from repro.core import AeonRuntime, is_retryable
from repro.elasticity import CloudStorage, EManager
from repro.elasticity.snapshot import fuzzy_snapshot
from repro.faults import (
    FailureDetector,
    FaultInjector,
    FaultSchedule,
    NetworkPartition,
    ServerCrash,
    random_churn,
)
from repro.sim import DeliveryError, M3_LARGE, RngRegistry, Simulator
from repro.sim.cluster import Cluster
from repro.sim.network import Network
from repro.workloads import ClosedLoopClients

from conftest import Cell, Testbed, Worker


# ----------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------
def test_schedule_validation_rejects_nonsense():
    with pytest.raises(ValueError):
        FaultSchedule([ServerCrash(-1.0, "s")]).validate()
    with pytest.raises(ValueError):
        FaultSchedule([ServerCrash(1.0, "s", restart_after_ms=0.0)]).validate()
    with pytest.raises(ValueError):
        FaultSchedule(
            [NetworkPartition(1.0, 10.0, ("a",), ("a", "b"))]
        ).validate()
    FaultSchedule(
        [
            ServerCrash(0.0, "s", restart_after_ms=5.0),
            NetworkPartition(1.0, 2.0, ("a",), ("b",)),
        ]
    ).validate()


def test_schedule_ordered_is_stable_by_time():
    schedule = FaultSchedule(
        [ServerCrash(50.0, "b"), ServerCrash(10.0, "a"), ServerCrash(50.0, "c")]
    )
    assert [f.server for f in schedule.ordered()] == ["a", "b", "c"]
    assert not schedule.empty and len(schedule) == 3


def test_random_churn_is_deterministic_and_bounded():
    servers = ["s1", "s2", "s3"]
    one = random_churn(servers, 60_000.0, RngRegistry(42),
                       mean_time_between_crashes_ms=8_000.0)
    two = random_churn(servers, 60_000.0, RngRegistry(42),
                       mean_time_between_crashes_ms=8_000.0)
    other = random_churn(servers, 60_000.0, RngRegistry(43),
                         mean_time_between_crashes_ms=8_000.0)
    assert one.faults == two.faults
    assert one.faults != other.faults
    assert len(one) > 0
    one.validate()
    for fault in one:
        assert 0.0 <= fault.at_ms < 60_000.0
        assert fault.server in servers
    # Crashes never overlap: each restarts before the next crash.
    times = [(f.at_ms, f.at_ms + f.restart_after_ms) for f in one.ordered()]
    for (_a0, a1), (b0, _b1) in zip(times, times[1:]):
        assert b0 >= a1


def test_churn_draws_do_not_touch_other_streams():
    rng = RngRegistry(7)
    before = rng.stream("client-0").random()
    rng2 = RngRegistry(7)
    random_churn(["s1"], 30_000.0, rng2)
    assert rng2.stream("client-0").random() == before


# ----------------------------------------------------------------------
# Injection mechanics
# ----------------------------------------------------------------------
def _fabric(n=3):
    sim = Simulator()
    cluster = Cluster(sim)
    network = Network(sim)
    servers = [cluster.add_server(M3_LARGE) for _ in range(n)]
    for server in servers:
        network.register(server.name, server.mailbox, server.itype)
    return sim, cluster, network, servers


def test_empty_schedule_installs_nothing():
    sim, cluster, network, _servers = _fabric()
    injector = FaultInjector(sim, network, cluster, FaultSchedule())
    injector.start()
    sim.run()
    assert network.fault is None
    assert injector.log == []


def test_crash_detaches_and_restart_reattaches():
    sim, cluster, network, servers = _fabric()
    victim = servers[1]
    schedule = FaultSchedule([ServerCrash(10.0, victim.name, restart_after_ms=20.0)])
    injector = FaultInjector(sim, network, cluster, schedule)
    injector.start()
    sim.run(until=15.0)
    assert not victim.alive and victim.crashed
    assert victim.crashed_at_ms == pytest.approx(10.0)
    assert victim.crash_count == 1
    # Messages to the crashed server are transmitted and lost.
    sent_before = network.messages_dropped
    network.send(servers[0].name, victim.name, "lost?")
    with pytest.raises(DeliveryError):
        network.delay_ms(servers[0].name, victim.name)
    sim.run(until=29.0)
    assert len(victim.mailbox) == 0
    assert network.messages_dropped > sent_before
    sim.run(until=40.0)
    assert victim.alive and not victim.crashed
    network.send(servers[0].name, victim.name, "hello again")
    sim.run(until=50.0)
    assert [m.payload for m in victim.mailbox.items] == ["hello again"]
    assert [text for _t, text in injector.log] == [
        f"server {victim.name} crashed",
        f"server {victim.name} restarted",
    ]


def test_partition_blocks_hops_and_drops_messages_then_heals():
    sim, cluster, network, servers = _fabric(3)
    a, b, c = (s.name for s in servers)
    schedule = FaultSchedule([NetworkPartition(5.0, 20.0, (a,), (b,))])
    FaultInjector(sim, network, cluster, schedule).start()
    sim.run(until=10.0)
    with pytest.raises(DeliveryError):
        network.delay_ms(a, b)
    with pytest.raises(DeliveryError):
        network.delay_ms(b, a)
    # Unpartitioned pairs are untouched.
    assert network.delay_ms(a, c) > 0.0
    network.send(a, b, "dropped")
    sim.run(until=24.0)
    assert len(network.mailbox(b)) == 0
    sim.run(until=30.0)  # healed at t=25
    assert network.delay_ms(a, b) > 0.0


# ----------------------------------------------------------------------
# Failure detection
# ----------------------------------------------------------------------
def test_detector_declares_crash_within_lease_and_sees_restart():
    sim, cluster, network, servers = _fabric(3)
    victim = servers[1]
    detector = FailureDetector(
        sim, network, cluster,
        heartbeat_interval_ms=50.0, lease_ms=160.0, check_interval_ms=25.0,
    )
    failures, recoveries = [], []
    detector.on_failure(failures.append)
    detector.on_recovery(recoveries.append)
    detector.start()
    schedule = FaultSchedule([ServerCrash(300.0, victim.name, restart_after_ms=400.0)])
    FaultInjector(sim, network, cluster, schedule).start()
    sim.run(until=250.0)
    assert detector.heartbeats_received > 0 and not detector.suspected
    sim.run(until=650.0)
    # Declared once, then possibly re-declared while still silent — but
    # only ever for the victim, and only one Detection is recorded.
    assert failures and set(failures) == {victim.name}
    assert detector.is_suspected(victim.name)
    [detection] = detector.detections
    assert detection.crashed_at_ms == pytest.approx(300.0)
    # Declared within lease + check granularity + heartbeat jitter.
    assert 0.0 < detection.latency_ms <= 160.0 + 50.0 + 25.0 + 1.0
    sim.run(until=800.0)  # restart at 700 -> heartbeats resume
    assert recoveries == [victim.name]
    assert not detector.is_suspected(victim.name)
    detector.stop()


def test_detector_partition_is_a_false_positive_guarded_by_recovery():
    bed = Testbed(AeonRuntime, n_servers=2, record_history=False)
    storage = CloudStorage(bed.sim)
    manager = EManager(bed.runtime, storage, None, M3_LARGE)
    detector = FailureDetector(
        bed.sim, bed.network, bed.cluster,
        heartbeat_interval_ms=50.0, lease_ms=160.0, check_interval_ms=25.0,
    )
    manager.enable_fault_tolerance(detector, checkpoint_interval_ms=0.0)
    detector.start()
    runtime = bed.runtime
    runtime.create_context(Cell, server=bed.servers[0], name="steady")
    # Cut the detector (only) off from server 0 for a while.
    schedule = FaultSchedule(
        [NetworkPartition(100.0, 500.0, (detector.name,), (bed.servers[0].name,))]
    )
    FaultInjector(bed.sim, bed.network, bed.cluster, schedule).start()
    bed.sim.run(until=1200.0)
    assert detector.detections  # declared dead...
    # ...but nothing was lost — and one partition is ONE false alarm,
    # however many times the silent suspect was re-declared meanwhile.
    assert manager.false_detections == 1
    assert runtime.placement["steady"] == bed.servers[0].name
    detector.stop()
    manager.stop()


# ----------------------------------------------------------------------
# Crash recovery end to end (the §5.3 acceptance scenario)
# ----------------------------------------------------------------------
def _recovery_bed():
    bed = Testbed(AeonRuntime, n_servers=3, record_history=False)
    storage = CloudStorage(bed.sim)
    manager = EManager(bed.runtime, storage, None, M3_LARGE)
    detector = FailureDetector(
        bed.sim, bed.network, bed.cluster,
        heartbeat_interval_ms=50.0, lease_ms=160.0, check_interval_ms=25.0,
    )
    return bed, storage, manager, detector


def test_crash_recovery_resumes_from_last_checkpoint():
    bed, storage, manager, detector = _recovery_bed()
    runtime, sim = bed.runtime, bed.sim
    victim = bed.servers[1]
    cell = runtime.create_context(Cell, server=victim, name="hot")
    manager.enable_fault_tolerance(detector, checkpoint_interval_ms=100.0,
                                   roots=["hot"])
    detector.start()
    schedule = FaultSchedule(
        [ServerCrash(150.0, victim.name, restart_after_ms=500.0)]
    )
    FaultInjector(sim, bed.network, bed.cluster, schedule).start()

    # Five increments committed before the t=100 checkpoint...
    done = [bed.submit(cell.add(1)) for _ in range(5)]
    sim.run(until=120.0)
    assert all(d.value.error is None for d in done)
    assert storage.peek("checkpoint/hot")["hot"]["value"] == 5
    # ...three more after it (these will be lost with the server).
    done = [bed.submit(cell.add(1)) for _ in range(3)]
    sim.run(until=149.0)
    assert runtime.instance_of("hot").value == 8

    # An event submitted during the outage fails with a retryable error.
    sim.run(until=200.0)
    lost = bed.submit(cell.add(1))
    sim.run(until=230.0)
    assert lost.triggered and lost.value.error is not None
    assert is_retryable(lost.value.error)
    assert runtime.events_failed >= 1

    # Detection + recovery: the context resumes from its last checkpoint
    # on a surviving server.
    sim.run(until=480.0)
    assert detector.detections and detector.detections[0].server == victim.name
    assert manager.contexts_recovered == 1
    assert runtime.placement["hot"] != victim.name
    assert runtime.instance_of("hot").value == 5  # rolled back
    assert victim.context_count == 0
    assert manager.recovery_log and manager.recovery_log[0]["restored"] == 1
    # The restore went through the coordinator's WAL'd restore path.
    assert any(r.kind == "restore" and r.step == "done"
               for r in manager.coordinator.records)
    assert storage.keys_with_prefix("migration/") == []  # WAL cleaned

    # New events execute against the restored context.
    after = bed.submit(cell.add(2))
    sim.run(until=700.0)
    assert after.value.error is None
    assert runtime.instance_of("hot").value == 7
    detector.stop()
    manager.stop()


def test_clients_retry_retryable_failures_and_recover():
    bed, storage, manager, detector = _recovery_bed()
    runtime, sim = bed.runtime, bed.sim
    victim = bed.servers[1]
    cell = runtime.create_context(Cell, server=victim, name="busy")
    manager.enable_fault_tolerance(detector, checkpoint_interval_ms=100.0,
                                   roots=["busy"])
    detector.start()
    schedule = FaultSchedule([ServerCrash(200.0, victim.name)])
    FaultInjector(sim, bed.network, bed.cluster, schedule).start()
    clients = ClosedLoopClients(
        runtime,
        lambda rng: (cell.add(1), "add"),
        n_clients=4,
        think_ms=10.0,
        rng=RngRegistry(3),
        stop_at_ms=1500.0,
        max_retries=3,
        retry_backoff_ms=30.0,
    )
    clients.start()
    sim.run(until=2500.0)
    detector.stop()
    manager.stop()
    assert clients.errors and clients.retries > 0
    assert all(is_retryable(error) for error in clients.errors)
    # After recovery the retried stream kept committing.
    assert runtime.placement["busy"] != victim.name
    post_outage = runtime.latency.latencies_between(800.0, 1500.0)
    assert post_outage  # goodput resumed


def test_fuzzy_snapshot_checkpoints_without_locks():
    bed = Testbed(AeonRuntime, n_servers=2, record_history=False)
    runtime, sim = bed.runtime, bed.sim
    storage = CloudStorage(sim)
    cell = runtime.create_context(Cell, server=bed.servers[0], name="plain")
    runtime.instance_of("plain").value = 9
    done = fuzzy_snapshot(runtime, storage, "plain", key="checkpoint/plain")
    sim.run(until=50.0)
    assert done.triggered and done.ok
    assert storage.peek("checkpoint/plain")["plain"]["value"] == 9


def test_fault_run_is_deterministic():
    def run_once():
        bed, storage, manager, detector = _recovery_bed()
        runtime, sim = bed.runtime, bed.sim
        victim = bed.servers[1]
        cell = runtime.create_context(Cell, server=victim, name="det")
        manager.enable_fault_tolerance(detector, checkpoint_interval_ms=100.0,
                                       roots=["det"])
        detector.start()
        schedule = FaultSchedule(
            [ServerCrash(180.0, victim.name, restart_after_ms=300.0)]
        )
        FaultInjector(sim, bed.network, bed.cluster, schedule).start()
        clients = ClosedLoopClients(
            runtime, lambda rng: (cell.add(1), "add"), n_clients=3,
            think_ms=7.0, rng=RngRegistry(5), stop_at_ms=900.0, max_retries=2,
        )
        clients.start()
        sim.run(until=1500.0)
        detector.stop()
        manager.stop()
        return (
            runtime.events_completed,
            runtime.events_failed,
            clients.retries,
            runtime.network.messages_dropped,
            tuple(runtime.latency.latencies()),
            tuple(detector.detections),
        )

    assert run_once() == run_once()


# ----------------------------------------------------------------------
# Hardening regressions
# ----------------------------------------------------------------------
def test_detector_tracks_cluster_membership():
    sim, cluster, network, servers = _fabric(2)
    detector = FailureDetector(
        sim, network, cluster,
        heartbeat_interval_ms=50.0, lease_ms=160.0, check_interval_ms=25.0,
    )
    detector.start()
    sim.run(until=100.0)
    # A server provisioned after start() (boot takes boot_delay_ms) is
    # watched once booted — and only then.
    handle = cluster.provision(M3_LARGE)
    network.register(handle.server.name, handle.server.mailbox, M3_LARGE)
    sim.run(until=cluster.boot_delay_ms + 400.0)
    assert handle.server.name in detector._watched
    assert not detector.is_suspected(handle.server.name)
    # Crashing the late arrival IS detected.
    cluster.crash_server(handle.server.name)
    network.detach(handle.server.name)
    sim.run(until=sim.now + 400.0)
    assert any(d.server == handle.server.name for d in detector.detections)
    # Decommissioning a server is forgotten, not declared dead.
    victim = servers[1].name
    cluster.decommission(victim)
    network.unregister(victim)
    sim.run(until=sim.now + 400.0)
    assert victim not in detector._watched
    assert not any(d.server == victim for d in detector.detections)
    detector.stop()


def test_recovery_survives_restore_refusal(monkeypatch):
    from repro.core.errors import MigrationError

    bed, storage, manager, detector = _recovery_bed()
    runtime, sim = bed.runtime, bed.sim
    victim = bed.servers[1]
    runtime.create_context(Cell, server=victim, name="doomed")
    manager.enable_fault_tolerance(detector, checkpoint_interval_ms=100.0,
                                   roots=["doomed"])
    detector.start()
    schedule = FaultSchedule([ServerCrash(150.0, victim.name)])
    FaultInjector(sim, bed.network, bed.cluster, schedule).start()

    def refuse(cid, dst, state=None):
        raise MigrationError("target refused mid-recovery")

    monkeypatch.setattr(manager.coordinator, "restore", refuse)
    sim.run(until=800.0)
    detector.stop()
    manager.stop()
    # The recovery process survived the synchronous refusal and logged.
    assert manager.recovery_log
    assert manager.recovery_log[0]["restored"] == 0


def test_checkpoints_do_not_alias_live_mutable_state():
    """A bundle must freeze dict/list fields, not share them with the
    live instance — and a restore must not hand the bundle's objects
    back out either (the same checkpoint may restore twice)."""
    from repro.core import ContextClass

    class Table(ContextClass):
        def __init__(self):
            self.rows = {"a": 1}

        def put(self, key, value):
            self.rows[key] = value  # in-place mutation

    bed, storage, manager, detector = _recovery_bed()
    runtime, sim = bed.runtime, bed.sim
    victim = bed.servers[1]
    table = runtime.create_context(Table, server=victim, name="table")
    manager.enable_fault_tolerance(detector, checkpoint_interval_ms=100.0,
                                   roots=["table"])
    detector.start()
    FaultInjector(
        sim, bed.network, bed.cluster,
        FaultSchedule([ServerCrash(150.0, victim.name)]),
    ).start()
    done = bed.submit(table.put("a", 2))
    sim.run(until=120.0)  # committed, then checkpointed at t=100
    assert done.value.error is None
    # Mutate in place after the checkpoint: the bundle must not follow.
    done = bed.submit(table.put("a", 99))
    sim.run(until=149.0)
    assert storage.peek("checkpoint/table")["table"]["rows"] == {"a": 2}
    # Crash + recovery: rolled back to the checkpointed dict.
    sim.run(until=800.0)
    instance = runtime.instance_of("table")
    assert instance.rows == {"a": 2}
    detector.stop()
    manager.stop()

    # Direct aliasing checks on the primitives: neither capture nor
    # restore may share mutables between bundle and live instance.
    bundle = storage.peek("checkpoint/table")["table"]
    instance.rows["poison"] = True
    assert "poison" not in bundle["rows"]  # capture copied
    instance.state_restore(bundle)
    assert instance.rows == {"a": 2}
    instance.rows["b"] = 7
    assert bundle["rows"] == {"a": 2}  # restore copied too


def test_crash_while_suspected_is_redeclared_and_recovered():
    """A partition false-positive that turns into a real crash must still
    drive recovery: the detector re-declares a suspect that stays silent."""
    bed, storage, manager, detector = _recovery_bed()
    runtime, sim = bed.runtime, bed.sim
    victim = bed.servers[1]
    runtime.create_context(Cell, server=victim, name="twice")
    manager.enable_fault_tolerance(detector, checkpoint_interval_ms=100.0,
                                   roots=["twice"])
    detector.start()
    schedule = FaultSchedule([
        # Cut the detector off from the victim (victim stays healthy)...
        NetworkPartition(100.0, 2500.0, (detector.name,), (victim.name,)),
        # ...then the victim truly crashes while already suspected.
        ServerCrash(600.0, victim.name),
    ])
    FaultInjector(sim, bed.network, bed.cluster, schedule).start()
    sim.run(until=2500.0)
    detector.stop()
    manager.stop()
    assert manager.false_detections >= 1  # the partition-era declaration
    assert detector.redeclarations >= 1
    assert manager.contexts_recovered == 1  # the re-declaration drove it
    assert runtime.placement["twice"] != victim.name


def test_checkpoint_skips_subtrees_with_members_on_dead_servers():
    """A subtree spread over servers keeps its previous checkpoint when
    any member's host is down — ghost memory must not be captured."""
    bed, storage, manager, detector = _recovery_bed()
    runtime, sim = bed.runtime, bed.sim
    worker = runtime.create_context(Worker, server=bed.servers[0], name="w")
    cell = runtime.create_context(Cell, owners=[worker], server=bed.servers[1],
                                  name="c")
    runtime.instance_of("w").cells.add(cell)
    manager.enable_fault_tolerance(detector, checkpoint_interval_ms=100.0,
                                   roots=["w"])
    detector.start()
    FaultInjector(
        sim, bed.network, bed.cluster,
        FaultSchedule([ServerCrash(150.0, bed.servers[1].name)]),
    ).start()
    done = bed.submit(worker.bump_all(1))
    sim.run(until=120.0)  # committed (value 1), checkpointed at t=100
    assert done.value.error is None
    assert storage.peek("checkpoint/w")["c"]["value"] == 1
    done = bed.submit(worker.bump_all(1))
    sim.run(until=149.0)  # value 2, in memory only
    assert runtime.instance_of("c").value == 2
    # Cell's host dies at 150; ticks at 200/300 must NOT refresh the
    # bundle from the dead server's memory (root's host is still alive).
    sim.run(until=310.0)
    assert storage.peek("checkpoint/w")["c"]["value"] == 1
    # Recovery then restores the checkpointed value.
    sim.run(until=900.0)
    assert runtime.instance_of("c").value == 1
    detector.stop()
    manager.stop()


def test_detector_stop_start_cycle_is_clean():
    """Restarting a stopped detector must respawn heartbeat senders and
    must not mass-declare the (healthy) fleet from stale leases."""
    sim, cluster, network, servers = _fabric(3)
    detector = FailureDetector(
        sim, network, cluster,
        heartbeat_interval_ms=50.0, lease_ms=160.0, check_interval_ms=25.0,
    )
    failures = []
    detector.on_failure(failures.append)
    detector.start()
    sim.run(until=300.0)
    detector.stop()
    sim.run(until=1200.0)  # long silence while stopped: leases go stale
    detector.start()
    sim.run(until=1800.0)
    # No spurious declarations: leases restarted with the detector.
    assert failures == []
    assert not detector.suspected
    received_before = detector.heartbeats_received
    sim.run(until=2100.0)
    assert detector.heartbeats_received > received_before  # senders live
    # A real crash after the restart is still detected exactly once.
    cluster.crash_server(servers[1].name)
    network.detach(servers[1].name)
    sim.run(until=2600.0)
    assert servers[1].name in set(failures)
    assert len(detector.detections) == 1
    detector.stop()
