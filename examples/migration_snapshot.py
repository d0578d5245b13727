"""Live migration + consistent snapshots (the §5 machinery).

A hot counter context receives a steady write stream while (a) the
migration protocol moves it between servers mid-stream, and (b) a
consistent snapshot of its whole subtree is taken concurrently.  The
event stream never observes an inconsistency, and the snapshot is a
single point in the serial order.

Run with::

    python examples/migration_snapshot.py
"""

from repro.core import AeonRuntime, ContextClass, RefSet, readonly
from repro.elasticity import CloudStorage, MigrationCoordinator, snapshot_context
from repro.sim import Cluster, M1_LARGE, M1_SMALL, Network, Server, Simulator


class Shard(ContextClass):
    """A counter shard."""

    size_bytes = 500_000  # half a megabyte of state to move

    def __init__(self):
        self.count = 0

    def bump(self):
        self.count += 1
        return self.count


class Ledger(ContextClass):
    """Owns shards; updates fan out to one shard per event."""

    shards = RefSet(Shard)

    def __init__(self):
        self.sequence = 0

    def record(self, shard_index):
        self.sequence += 1
        shards = self.shards.refs()
        result = yield shards[shard_index % len(shards)].bump()
        return result

    @readonly
    def total(self):
        total = 0
        for shard in self.shards:
            value = yield shard.peek() if hasattr(shard, "peek") else shard.count
            total += value
        return total


def main():
    sim = Simulator()
    cluster = Cluster(sim)
    network = Network(sim)
    s1 = cluster.add_server(M1_SMALL, "server-1")
    s2 = cluster.add_server(M1_SMALL, "server-2")
    runtime = AeonRuntime(sim, network, cluster, record_history=True)

    ledger = runtime.create_context(Ledger, server=s1, name="ledger")
    for i in range(3):
        shard = runtime.create_context(
            Shard, owners=[ledger], server=s1, name=f"shard-{i}"
        )
        runtime.instance_of(ledger).shards.add(shard)

    storage = CloudStorage(sim)
    emanager_host = Server(sim, "~emanager", M1_LARGE)
    network.register(emanager_host.name, M1_LARGE)
    coordinator = MigrationCoordinator(runtime, storage, emanager_host)

    client = runtime.register_client("writer")
    submissions = []

    def write_stream():
        for i in range(200):
            submissions.append(client.submit(ledger.record(i), tag="write"))
            yield sim.timeout(0.5)

    log = []

    def migrate_mid_stream():
        yield sim.timeout(20.0)
        log.append(f"t={sim.now:.1f}ms  migrating shard-1 to {s2.name} ...")
        done = coordinator.migrate("shard-1", s2)
        yield done
        record = done.value
        log.append(
            f"t={sim.now:.1f}ms  migrated in "
            f"{record.finished_ms - record.started_ms:.1f} ms "
            f"({record.size_bytes / 1e6:.1f} MB)"
        )

    snap_keys = []

    def snapshot_mid_stream():
        yield sim.timeout(40.0)
        done = snapshot_context(runtime, storage, ledger)
        yield done
        snap_keys.append(done.value)
        log.append(f"t={sim.now:.1f}ms  snapshot stored at {done.value!r}")

    sim.process(write_stream())
    sim.process(migrate_mid_stream())
    sim.process(snapshot_mid_stream())
    sim.run()

    for line in log:
        print(line)
    completed = sum(1 for s in submissions if s.triggered)
    errors = [s.value.error for s in submissions if s.triggered and s.value.error]
    print(f"writes completed: {completed}/200, errors: {len(errors)}")
    print(f"shard-1 now hosted on: {runtime.placement['shard-1']}")

    bundle = storage.peek(snap_keys[0])
    snap_counts = {cid: state["count"] for cid, state in bundle.items()
                   if cid.startswith("shard")}
    snap_seq = bundle["ledger"]["sequence"]
    print(f"snapshot: ledger.sequence={snap_seq}, shard counts={snap_counts}")
    assert sum(snap_counts.values()) == snap_seq, "snapshot not consistent!"
    print("snapshot is consistent (shard sum == ledger sequence) ✓")
    runtime.check_history()
    print("history: strictly serializable across the migration ✓")


if __name__ == "__main__":
    main()
