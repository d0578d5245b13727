"""The five-step atomic context-migration protocol (§5.2).

Steps, exactly as the paper numbers them:

  I.   The eManager sends *prepare* to the destination ``s2``; ``s2``
       creates a pending queue for the context and acks.
  II.  The eManager tells the source ``s1`` to stop accepting events for
       the context and waits for the ack.
  III. After ``δ`` milliseconds it durably updates the context mapping
       (new lookups resolve to ``s2``) and sends ``migrate(C, s2)`` to
       ``s1``.
  IV.  ``s1`` enqueues the special ``migratec`` event in C's execution
       queue; when it reaches the head (all admitted events drained) the
       state transfer starts.
  V.   On completion ``s2`` notifies the eManager and starts executing
       the buffered events.

In this implementation the "pending queue" and "stop accepting" are
realized by the context's lock: ``migratec`` is an exclusive synthetic
event, so events admitted before it finish first (correctness under
migration), and events arriving later queue behind it and execute at
``s2`` after the move — plus a forward hop if their sender's location
cache was stale (modeled by :class:`~repro.core.runtime.ClientHandle`).

Every step writes a write-ahead record to cloud storage, which is what
lets a recovering eManager finish in-flight migrations (§5.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List, Optional

from ..core.errors import FencedError, MigrationError
from ..core.events import AccessMode, CallSpec, Event
from ..core.runtime import RuntimeBase
from ..sim.cluster import Server
from ..sim.kernel import CpuCharge, Signal, Simulator
from .storage import CloudStorage

__all__ = ["MigrationCoordinator", "MigrationRecord"]


@dataclass
class MigrationRecord:
    """Progress record of one migration (also the WAL payload)."""

    migration_id: int
    cid: str
    src: str
    dst: str
    step: str = "started"  # started -> prepared -> stopped -> remapped -> moved -> done
    started_ms: float = 0.0
    finished_ms: Optional[float] = None
    size_bytes: int = 0
    #: "migrate" (live five-step protocol) or "restore" (crash recovery:
    #: no live source, state comes from the last checkpoint).
    kind: str = "migrate"

    def as_payload(self) -> dict:
        """Serializable WAL form."""
        return {
            "migration_id": self.migration_id,
            "cid": self.cid,
            "src": self.src,
            "dst": self.dst,
            "step": self.step,
            "kind": self.kind,
        }


class MigrationCoordinator:
    """Executes migrations for a runtime, one generator process each."""

    #: Fixed eManager work per migration (bookkeeping, not CPU-scaled).
    BASE_OVERHEAD_MS = 4.0
    #: CPU unit-work charged on the eManager host per migration.
    EMANAGER_CPU_MS = 14.0

    def __init__(
        self,
        runtime: RuntimeBase,
        storage: CloudStorage,
        emanager_host: Server,
        delta_ms: float = 2.0,
    ) -> None:
        self.runtime = runtime
        self.storage = storage
        self.host = emanager_host
        self.delta_ms = delta_ms
        self.records: List[MigrationRecord] = []
        self._counter = 0
        self.completed = 0
        self.failed = 0
        self.restored = 0
        #: Set on eManager crash: in-flight migrations stop at their
        #: next step boundary, leaving their WAL record for recovery.
        self.halted = False
        #: Honest failure semantics (wired by the eManager; default off):
        #: ``honest`` makes restores reset versions from the snapshot and
        #: account rolled-back writes; ``fenced`` makes every WAL append
        #: validate ``acting_epoch`` against the durable manager epoch,
        #: so a predecessor eManager that lost a failover cannot corrupt
        #: the WAL its successor now owns.
        self.honest = False
        self.fenced = False
        self.acting_epoch = 0
        self.fenced_appends = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def migrate(self, cid: str, dst: Server) -> Signal:
        """Migrate context ``cid`` to server ``dst``; returns completion."""
        record = self._new_record(cid, dst)
        done = self.runtime.sim.signal(name=f"migration:{record.migration_id}")
        self.runtime.sim.process(
            self._run(record, done), name=f"migration-{record.migration_id}"
        )
        return done

    def restore(self, cid: str, dst: Server, state: Optional[dict] = None) -> Signal:
        """Re-place a context lost in a server crash onto ``dst`` (§5.3).

        A *recovery migration*: there is no live source to drain, so the
        five-step protocol degenerates to prepare → durable remap →
        state push.  ``state`` is the context's last checkpointed state
        bundle entry (``None`` when no checkpoint covers it — the
        context is re-placed with whatever state survives, and the
        caller accounts the gap).  Returns the completion signal.
        """
        if cid not in self.runtime.placement:
            raise MigrationError(f"cannot restore unknown context {cid!r}")
        if not dst.alive:
            raise MigrationError(f"restore destination {dst.name} is not booted")
        self._counter += 1
        instance = self.runtime.instances.get(cid)
        record = MigrationRecord(
            migration_id=self._counter,
            cid=cid,
            src=self.runtime.placement[cid],
            dst=dst.name,
            kind="restore",
            started_ms=self.runtime.sim.now,
            size_bytes=int(getattr(instance, "size_bytes", 1024)),
        )
        self.records.append(record)
        done = self.runtime.sim.signal(name=f"restore:{record.migration_id}")
        self.runtime.sim.process(
            self._run_restore(record, state, done),
            name=f"restore-{record.migration_id}",
        )
        return done

    def ensure_counter_at_least(self, floor: int) -> None:
        """Never allocate a migration id at or below ``floor``.

        A recovering eManager calls this with the highest id its WAL has
        seen: a fresh migration reusing a live id would collide on the
        ``migration/{id}`` WAL key (one migration's "done" delete erases
        another's record) and on the synthetic ``eid=-id`` events in the
        lock machinery.
        """
        self._counter = max(self._counter, int(floor))

    def resume(self, record: MigrationRecord) -> Signal:
        """Finish an in-flight migration found in the WAL (recovery)."""
        done = self.runtime.sim.signal(name=f"migration:{record.migration_id}:resume")
        self.records.append(record)
        self.runtime.sim.process(
            self._run(record, done), name=f"migration-{record.migration_id}-resume"
        )
        return done

    def _new_record(self, cid: str, dst: Server) -> MigrationRecord:
        if cid not in self.runtime.placement:
            raise MigrationError(f"cannot migrate unknown context {cid!r}")
        src = self.runtime.placement[cid]
        if src == dst.name:
            raise MigrationError(f"context {cid!r} is already on {dst.name}")
        if not dst.alive:
            raise MigrationError(f"destination {dst.name} is not booted")
        self._counter += 1
        instance = self.runtime.instances[cid]
        record = MigrationRecord(
            migration_id=self._counter,
            cid=cid,
            src=src,
            dst=dst.name,
            started_ms=self.runtime.sim.now,
            size_bytes=int(getattr(instance, "size_bytes", 1024)),
        )
        self.records.append(record)
        return record

    # ------------------------------------------------------------------
    # The protocol
    # ------------------------------------------------------------------
    def _run(self, record: MigrationRecord, done: Signal) -> Generator:
        sim = self.runtime.sim
        network = self.runtime.network
        try:
            # eManager bookkeeping (CPU on the eManager host).
            yield CpuCharge(self.host.cpu, self.host.itype.cpu_ms(self.EMANAGER_CPU_MS))
            yield sim.timeout(self.BASE_OVERHEAD_MS)

            # Step I: prepare the destination, wait for its ack.
            yield network.delay_signal(self.host.name, record.dst)
            yield network.delay_signal(record.dst, self.host.name)
            yield from self._log(record, "prepared")
            if self.halted:
                return

            # Step II: source stops accepting events for the context.
            yield network.delay_signal(self.host.name, record.src)
            yield network.delay_signal(record.src, self.host.name)
            yield from self._log(record, "stopped")
            if self.halted:
                return

            # Step III: after δ, durably remap, then tell the source.
            yield sim.timeout(self.delta_ms)
            yield self.storage.write(
                f"mapping/{record.cid}", record.dst, size_bytes=64
            )
            yield from self._log(record, "remapped")
            if self.halted:
                return
            yield network.delay_signal(self.host.name, record.src)

            # Step IV: the migratec event drains the context's queue.
            migratec = Event(
                eid=-record.migration_id,  # negative ids: synthetic events
                spec=CallSpec(record.cid, "__migrate__"),
                mode=AccessMode.EX,
                client="~emanager",
                submitted_ms=sim.now,
                tag="migrate",
            )
            lock = self.runtime.lock_of(record.cid)
            grant, _owned = lock.request(migratec)
            yield grant
            try:
                # Step V: transfer the state and flip the placement.
                yield network.delay_signal(
                    record.src, record.dst, size_bytes=record.size_bytes
                )
                self._apply_placement(record)
                yield from self._log(record, "moved")
            finally:
                lock.release(migratec)
            # s2 notifies the eManager; buffered events already queue
            # on the (location-independent) lock and run at s2.
            yield network.delay_signal(record.dst, self.host.name)
            yield from self._log(record, "done")
            record.finished_ms = sim.now
            self.completed += 1
            done.succeed(record)
        except Exception as exc:  # noqa: BLE001 - surfaced to the caller
            self.failed += 1
            done.fail(MigrationError(f"migration of {record.cid!r} failed: {exc}"))

    def _run_restore(
        self, record: MigrationRecord, state: Optional[dict], done: Signal
    ) -> Generator:
        sim = self.runtime.sim
        network = self.runtime.network
        try:
            # eManager bookkeeping (CPU on the eManager host).
            yield CpuCharge(self.host.cpu, self.host.itype.cpu_ms(self.EMANAGER_CPU_MS))
            yield sim.timeout(self.BASE_OVERHEAD_MS)
            yield from self._log(record, "prepared")
            if self.halted:
                return

            # Prepare the destination (it allocates the pending queue).
            yield network.delay_signal(self.host.name, record.dst)
            yield network.delay_signal(record.dst, self.host.name)

            # Durably remap: new lookups resolve to the new host.
            yield self.storage.write(
                f"mapping/{record.cid}", record.dst, size_bytes=64
            )
            yield from self._log(record, "remapped")
            if self.halted:
                return

            # Take the context's lock: anything the dying holder left is
            # drained first (failed in-flight events release on death),
            # and events admitted behind us execute at the new host.
            restorec = Event(
                eid=-500_000 - record.migration_id,  # synthetic id space
                spec=CallSpec(record.cid, "__restore__"),
                mode=AccessMode.EX,
                client="~emanager",
                submitted_ms=sim.now,
                tag="restore",
            )
            lock = self.runtime.lock_of(record.cid)
            grant, _owned = lock.request(restorec)
            yield grant
            try:
                # Push the checkpointed state to the destination and
                # roll the instance back to it.
                yield network.delay_signal(
                    self.host.name, record.dst, size_bytes=record.size_bytes
                )
                instance = self.runtime.instances.get(record.cid)
                if instance is not None and state is not None:
                    rolled = instance.state_restore(
                        state,
                        restore_version=self.honest,
                        restore_structure=self.honest,
                    )
                    self.runtime.writes_rolled_back += rolled
                self._apply_restore_placement(record)
                yield from self._log(record, "moved")
            finally:
                lock.release(restorec)
            yield network.delay_signal(record.dst, self.host.name)
            yield from self._log(record, "done")
            record.finished_ms = sim.now
            self.completed += 1
            self.restored += 1
            done.succeed(record)
        except Exception as exc:  # noqa: BLE001 - surfaced to the caller
            self.failed += 1
            done.fail(MigrationError(f"restore of {record.cid!r} failed: {exc}"))

    def _apply_restore_placement(self, record: MigrationRecord) -> None:
        """Force the placement to the restore destination.

        Unlike :meth:`_apply_placement` the source may be a dead server
        (or even already-moved bookkeeping from a half-completed earlier
        attempt); the destination must be alive.
        """
        placement = self.runtime.placement
        current = placement.get(record.cid)
        if current == record.dst:
            return
        dst_server = self.runtime.cluster.servers.get(record.dst)
        if dst_server is None or not dst_server.alive:
            raise MigrationError(f"restore destination {record.dst} vanished")
        src_server = self.runtime.cluster.servers.get(current) if current else None
        placement[record.cid] = record.dst
        if src_server is not None:
            src_server.context_count -= 1
        dst_server.context_count += 1

    def _apply_placement(self, record: MigrationRecord) -> None:
        placement = self.runtime.placement
        current = placement.get(record.cid)
        if current == record.dst:
            return  # recovery re-run after the move already happened
        if current != record.src:
            raise MigrationError(
                f"context {record.cid!r} moved unexpectedly "
                f"({current!r} != {record.src!r})"
            )
        src_server = self.runtime.cluster.servers.get(record.src)
        dst_server = self.runtime.cluster.servers.get(record.dst)
        if dst_server is None or not dst_server.alive:
            raise MigrationError(f"destination {record.dst} vanished mid-migration")
        placement[record.cid] = record.dst
        if src_server is not None:
            src_server.context_count -= 1
        dst_server.context_count += 1

    def _log(self, record: MigrationRecord, step: str) -> Generator:
        """Persist the WAL record for crash recovery (§5.3).

        With fencing enabled the append is conditional on the manager
        epoch (a compare-and-set against the durable ``fencing/manager``
        key): a coordinator whose ``acting_epoch`` lags the epoch a
        recovered successor wrote is stale and its append is rejected —
        it cannot race the successor on the WAL.
        """
        if self.fenced:
            current = self.storage.peek("fencing/manager")
            if current is not None and int(current) > self.acting_epoch:
                self.fenced_appends += 1
                raise FencedError(
                    f"WAL append for migration {record.migration_id} rejected: "
                    f"manager epoch {self.acting_epoch} is stale "
                    f"(current {int(current)})"
                )
        record.step = step
        key = f"migration/{record.migration_id}"
        if step == "done":
            yield self.storage.delete(key)
        else:
            yield self.storage.write(key, record.as_payload(), size_bytes=128)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def in_flight(self) -> List[MigrationRecord]:
        """Migrations that have started but not finished."""
        return [r for r in self.records if r.finished_ms is None]
