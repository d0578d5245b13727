"""The elasticity manager (§5): mapping, policies, migrations, recovery.

The eManager is a *stateless* service: the authoritative context mapping
and the in-flight migration write-ahead records live in cloud storage.
Every ``report_interval_ms`` it:

1. collects per-server resource reports (CPU utilization, context
   counts) and recent client latency,
2. asks its :class:`~repro.elasticity.policies.ElasticityPolicy` for
   actions,
3. provisions/decommissions servers and launches migrations through the
   :class:`~repro.elasticity.migration.MigrationCoordinator` (bounded
   concurrency),
4. persists the mapping epoch.

``crash()`` kills the manager mid-flight; ``recover()`` builds a fresh
manager that reads the WAL from storage and completes unfinished
migrations — the §5.3 fault-tolerance story.

:meth:`EManager.enable_fault_tolerance` extends §5.3 from manager
crashes to **server** crashes: a periodic checkpointing policy snapshots
configured context subtrees to cloud storage, and a failure detector's
declarations trigger re-placement of the lost contexts from their last
checkpoint through the migration coordinator's restore path.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Set

from ..core.errors import MigrationError
from ..core.ownership import FencingTable
from ..core.runtime import RuntimeBase
from ..sim.cluster import InstanceType, Server
from ..sim.kernel import Signal
from ..sim.metrics import TimeSeries, mean, percentile
from .migration import MigrationCoordinator, MigrationRecord
from .snapshot import (
    DeltaCheckpointer,
    fuzzy_snapshot,
    read_checkpoint,
    snapshot_context,
    subtree_members,
)
from .policies import (
    Action,
    ClusterSnapshot,
    ElasticityPolicy,
    MigrateAction,
    ScaleInAction,
    ScaleOutAction,
    ServerReport,
)
from .storage import CloudStorage

__all__ = ["EManager"]


class EManager:
    """Periodic elasticity controller for one runtime."""

    def __init__(
        self,
        runtime: RuntimeBase,
        storage: CloudStorage,
        policy: Optional[ElasticityPolicy],
        instance_type: InstanceType,
        report_interval_ms: float = 1000.0,
        max_concurrent_migrations: int = 4,
        host: Optional[Server] = None,
    ) -> None:
        self.runtime = runtime
        self.storage = storage
        self.policy = policy
        self.instance_type = instance_type
        self.report_interval_ms = report_interval_ms
        self.max_concurrent_migrations = max_concurrent_migrations
        sim = runtime.sim
        self.host = host or Server(sim, "~emanager", instance_type)
        if not runtime.network.is_registered(self.host.name):
            runtime.network.register(self.host.name, self.host.mailbox, instance_type)
        self.coordinator = MigrationCoordinator(runtime, storage, self.host)
        self.crashed = False
        self.running = False
        self.migrations_started = 0
        self.server_count_series = TimeSeries()
        self._latency_mark = 0
        self._draining: Dict[str, bool] = {}
        # Fault tolerance (enable_fault_tolerance): periodic checkpoints
        # and crash recovery driven by a failure detector.
        self.checkpoint_interval_ms: Optional[float] = None
        self.checkpoints_taken = 0
        self.checkpoints_skipped = 0
        self.contexts_recovered = 0
        self.contexts_restored_without_checkpoint = 0
        self.recoveries = 0
        self.false_detections = 0
        #: Client location-cache entries dropped by push invalidation
        #: (detector declarations and scale-in decommissions).
        self.cache_invalidations = 0
        self.recovery_log: List[Dict[str, Any]] = []
        self._checkpoint_roots: List[str] = []
        self._checkpointing = False
        self._consistent_checkpoints = True
        self._checkpoint_mode = "full"
        self._delta_checkpointers: Dict[str, DeltaCheckpointer] = {}
        self._recovering: Dict[str, bool] = {}
        # Names currently counted as false alarms: the detector
        # re-declares a silent suspect every lease, but one partition is
        # one false detection, counted on the suspicion transition only.
        self._false_suspects: Dict[str, bool] = {}
        # Honest failure semantics (enable_fault_tolerance knobs): when
        # fencing is on, recovery is driven by fencing epochs and durable
        # storage evidence instead of ground-truth aliveness peeks.
        self.fencing: Optional[FencingTable] = None
        self.fence_grace_ms = 300.0
        #: Restores served from a fenced owner's step-down flush (the
        #: zero-lost-updates path) rather than a periodic checkpoint.
        self.flush_restores = 0
        #: Contexts rebuilt in place after their host restarted (crash
        #: realism: restarts rehydrate from checkpoint, not from the
        #: ghost of pre-crash memory).
        self.rehydrations = 0
        self._fencing_enabled = False
        self._honest_recovery = False
        self._crash_drops_state = False
        # The detector's live set of suspects (not the detector: it
        # holds this manager's callbacks, and the pair must not be a
        # reference cycle).
        self._suspected: Any = ()
        self._hooked_servers: Set[str] = set()
        # Half-done restores a crashed predecessor journaled; re-driven
        # once this (successor) manager is wired for fault tolerance.
        self._pending_restores: List[Dict[str, Any]] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin the periodic report/decide/act loop."""
        if self.running:
            return
        self.running = True
        self.runtime.sim.process(self._loop(), name="emanager")

    def stop(self) -> None:
        """Stop the control (and checkpoint) loops at their next tick."""
        self.running = False
        self._checkpointing = False

    def crash(self) -> None:
        """Fail-stop the manager (in-flight migrations keep their WAL)."""
        self.crashed = True
        self.running = False
        self._checkpointing = False
        self.coordinator.halted = True

    def recover(self) -> "EManager":
        """Elect a replacement manager that finishes WAL'd migrations.

        With fencing enabled the successor first bumps the durable
        manager epoch: from the moment that write lands, the
        predecessor's WAL appends are rejected as stale
        (:class:`~repro.core.errors.FencedError`) even if it was merely
        partitioned, not dead — the split-brain-manager guard.

        Half-done *restores* found in the WAL are journaled onto the
        successor and re-driven once :meth:`enable_fault_tolerance`
        wires it (self-healing recovery), instead of stalling until the
        detector re-declares the still-silent server.  Their ids seed
        the migration counter alongside the migrate records, so a drain
        or recovery issued during the failover can never double-assign
        an id a half-done restore still holds.
        """
        successor = EManager(
            self.runtime,
            self.storage,
            self.policy,
            self.instance_type,
            self.report_interval_ms,
            self.max_concurrent_migrations,
        )
        fencing = self.runtime.fencing
        if self._fencing_enabled and fencing is not None:
            epoch = fencing.bump_manager()
            # Fire-and-forget durable CAS floor: once applied, the
            # predecessor's _log appends observe a newer epoch and fence.
            self.storage.write("fencing/manager", epoch, size_bytes=32)
            successor.coordinator.fenced = True
            successor.coordinator.acting_epoch = epoch
        successor.coordinator.honest = self.coordinator.honest
        max_walled_id = 0
        for key in self.storage.keys_with_prefix("migration/"):
            payload = self.storage.peek(key)
            if not payload:
                continue
            # Track every id the WAL has seen (resumed or not) so the
            # successor's counter can be seeded past all of them — see
            # MigrationCoordinator.ensure_counter_at_least.
            max_walled_id = max(max_walled_id, int(payload.get("migration_id", 0)))
            if payload.get("step") in (None, "done"):
                continue
            if payload.get("kind", "migrate") != "migrate":
                # Half-done restore: journal it for re-drive once the
                # successor is wired with enable_fault_tolerance — the
                # self-healing path (no waiting for re-detection).
                successor._pending_restores.append(dict(payload))
                continue
            record = MigrationRecord(
                migration_id=payload["migration_id"],
                cid=payload["cid"],
                src=payload["src"],
                dst=payload["dst"],
                step=payload["step"],
                started_ms=self.runtime.sim.now,
            )
            instance = self.runtime.instances.get(record.cid)
            if instance is not None:
                record.size_bytes = int(getattr(instance, "size_bytes", 1024))
            successor.coordinator.resume(record)
        successor.coordinator.ensure_counter_at_least(max_walled_id)
        return successor

    # ------------------------------------------------------------------
    # Server fault tolerance: checkpoints + crash recovery (§5.3)
    # ------------------------------------------------------------------
    @staticmethod
    def checkpoint_key(root_cid: str) -> str:
        """Stable storage key of a subtree's rolling checkpoint."""
        return f"checkpoint/{root_cid}"

    @property
    def checkpoint_bytes_written(self) -> int:
        """Bytes shipped to storage under ``checkpoint/`` so far.

        The headline storage cost the fig11 availability experiment
        compares between full and delta checkpoint modes.
        """
        return self.storage.bytes_written_for("checkpoint")

    def enable_fault_tolerance(
        self,
        detector: Any,
        checkpoint_interval_ms: float = 2000.0,
        roots: Optional[List[str]] = None,
        consistent_checkpoints: bool = True,
        checkpoint_mode: str = "full",
        max_delta_chain: int = 6,
        fencing: bool = False,
        honest_recovery: Optional[bool] = None,
        crash_drops_state: bool = False,
        fence_grace_ms: float = 300.0,
    ) -> None:
        """Checkpoint ``roots``' subtrees periodically; recover on crashes.

        ``detector`` is duck typed (``on_failure(callback)`` — a
        :class:`repro.faults.FailureDetector`); its declarations trigger
        re-placement of every context the dead server hosted, rolled
        back to its last checkpoint, via the coordinator's restore path.
        ``roots`` defaults to every non-virtual root of the ownership
        network at enable time (checkpoint the world).

        ``consistent_checkpoints=False`` switches to lock-free per-context
        capture (:func:`~repro.elasticity.snapshot.fuzzy_snapshot`) —
        required for runtimes whose locking has no global acquisition
        order (Orleans' per-call turn locks deadlock against a
        subtree-locking snapshot).

        ``checkpoint_mode`` selects what each interval uploads:

        * ``"full"`` — the whole subtree every time (one rolling bundle);
        * ``"delta"`` — a :class:`~repro.elasticity.snapshot.DeltaCheckpointer`
          per root: contexts whose ``_aeon_version`` has not moved are
          skipped, unchanged intervals write nothing, and after
          ``max_delta_chain`` deltas the subtree re-bases.  Orthogonal
          to ``consistent_checkpoints`` (capture discipline vs storage
          layout).

        The honest-failure knobs (all default **off**, preserving the
        legacy byte-identical behavior):

        * ``fencing`` — replace ground-truth aliveness with the fencing
          epoch protocol: a declaration fences the victim's subtrees
          (epoch bump, persisted under ``fencing/{root}``); a fenced
          owner gets ``fence_grace_ms`` to flush its live state through
          cloud storage before the manager restores from the freshest
          durable image.  Writes from a stale-epoch owner raise
          :class:`~repro.core.errors.FencedError`, and a predecessor
          eManager's WAL appends are fenced by the manager epoch.
        * ``honest_recovery`` — recovery never double-checks ground
          truth before restoring (defaults to ``fencing``).  With
          fencing off this deliberately re-introduces the window the
          paper's §5.3 glosses over: a falsely-declared live owner keeps
          serving while recovery rolls its subtree back — the lost
          updates the ``split_brain`` scenario quantifies.
        * ``crash_drops_state`` — crash realism: a server crash drops
          the volatile state of every context it hosted *at crash time*;
          a restart rehydrates from checkpoint + WAL instead of
          resurrecting pre-crash memory.
        """
        if checkpoint_mode not in ("full", "delta"):
            raise ValueError(f"unknown checkpoint_mode {checkpoint_mode!r}")
        self.checkpoint_interval_ms = checkpoint_interval_ms
        self._consistent_checkpoints = consistent_checkpoints
        self._checkpoint_mode = checkpoint_mode
        if roots is None:
            ownership = self.runtime.ownership
            roots = sorted(
                cid for cid in ownership.roots() if not ownership.is_virtual(cid)
            )
        self._checkpoint_roots = list(roots)
        if checkpoint_mode == "delta":
            self._delta_checkpointers = {
                root: DeltaCheckpointer(
                    self.runtime,
                    self.storage,
                    root,
                    key=self.checkpoint_key(root),
                    consistent=consistent_checkpoints,
                    max_chain=max_delta_chain,
                )
                for root in self._checkpoint_roots
            }
        self._suspected = getattr(detector, "suspected", ())
        self._honest_recovery = fencing if honest_recovery is None else honest_recovery
        self._crash_drops_state = crash_drops_state
        self.fence_grace_ms = fence_grace_ms
        if fencing:
            self._fencing_enabled = True
            table = self.runtime.fencing or FencingTable()
            stored_manager = self.storage.peek("fencing/manager")
            if stored_manager is not None:
                table.manager_epoch = max(table.manager_epoch, int(stored_manager))
            for root in self._checkpoint_roots:
                table.track(
                    root,
                    subtree_members(self.runtime, root),
                    self.runtime.placement.get(root),
                )
                persisted = self.storage.peek(f"fencing/{root}")
                if persisted is not None:
                    # A predecessor fenced/granted this root before
                    # failing over: adopt the durable epoch (epochs only
                    # move forward).
                    table.adopt_epoch(root, int(persisted))
            self.fencing = table
            self.runtime.enable_honest_failures(table)
            self.coordinator.honest = True
            self.coordinator.fenced = True
            self.coordinator.acting_epoch = table.manager_epoch
        elif self._honest_recovery or crash_drops_state:
            # Honest semantics without epochs: dropped-state retries and
            # rolled-back-write accounting, but no write fencing.
            self.runtime.enable_honest_failures(None)
            self.coordinator.honest = True
        if crash_drops_state:
            for name in sorted(self.runtime.cluster.servers):
                self._hook_server(self.runtime.cluster.servers[name])
        detector.on_failure(self._on_server_failure)
        on_recovery = getattr(detector, "on_recovery", None)
        if on_recovery is not None:
            on_recovery(self._on_server_recovered)
        if self._pending_restores:
            self.runtime.sim.process(
                self._redrive_restores(), name="redrive-restores"
            )
        if checkpoint_interval_ms and not self._checkpointing:
            self._checkpointing = True
            self.runtime.sim.process(self._checkpoint_loop(), name="checkpointer")

    def _checkpoint_loop(self) -> Generator:
        runtime = self.runtime
        while self._checkpointing and not self.crashed:
            yield runtime.sim.timeout(self.checkpoint_interval_ms)
            if not self._checkpointing or self.crashed:
                return
            for root in self._checkpoint_roots:
                instance = runtime.instances.get(root)
                if instance is None:
                    continue
                if self._honest_mode:
                    # Honest capture guard — no ground-truth peeks: skip
                    # roots that are fenced (an ownership handoff is in
                    # flight) and members whose volatile state died in a
                    # crash; checkpointing ghost memory would mask the
                    # loss.
                    skip = self.fencing is not None and self.fencing.is_fenced(
                        root
                    )
                    if not skip:
                        for member in subtree_members(runtime, root):
                            peer = runtime.instances.get(member)
                            if peer is not None and peer._aeon_state_dropped:
                                skip = True
                                break
                    if skip:
                        continue
                else:
                    # A subtree with ANY member on a dead server keeps
                    # its previous checkpoint: capturing the ghost memory
                    # of a crashed host would mask exactly the state loss
                    # this machinery exists to model.
                    members_alive = True
                    for member in subtree_members(runtime, root):
                        if not self._ground_truth_alive(
                            runtime.placement.get(member, "")
                        ):
                            members_alive = False
                            break
                    if not members_alive:
                        continue
                checkpointer = self._delta_checkpointers.get(root)
                if checkpointer is not None:
                    done = checkpointer.checkpoint()
                elif self._consistent_checkpoints:
                    done = snapshot_context(
                        runtime, self.storage, instance.ref,
                        key=self.checkpoint_key(root),
                    )
                else:
                    done = fuzzy_snapshot(
                        runtime, self.storage, root, key=self.checkpoint_key(root)
                    )
                try:
                    outcome = yield done
                except Exception:  # noqa: BLE001 - keep checkpointing others
                    continue
                if outcome == "skip":
                    self.checkpoints_skipped += 1
                else:
                    self.checkpoints_taken += 1

    @property
    def _honest_mode(self) -> bool:
        """Whether any honest-failure knob is on (no ground-truth peeks)."""
        return (
            self._fencing_enabled
            or self._honest_recovery
            or self._crash_drops_state
        )

    def _ground_truth_alive(self, name: str) -> bool:
        """Simulator-omniscient liveness peek (legacy recovery only).

        The default (non-fencing) configuration decides recovery and
        checkpoint safety by peeking the simulator's ground truth — a
        cheat no distributed system can perform.  Every such peek routes
        through this one accessor so the honest configuration can prove
        it never consults it: tests monkeypatch this method to raise and
        run full fencing scenarios end to end.
        """
        server = self.runtime.cluster.servers.get(name)
        return server is not None and server.alive

    def _hook_server(self, server: Server) -> None:
        """Register crash-realism hooks on ``server`` (idempotent)."""
        if server.name in self._hooked_servers:
            return
        self._hooked_servers.add(server.name)
        server.on_crash.append(self._on_host_crash)
        server.on_restart.append(self._on_host_restart)

    def _on_host_crash(self, server: Server) -> None:
        # Crash realism: the volatile state of every hosted context dies
        # with the host, at crash time — not lazily at declaration.
        self.runtime.drop_server_state(server.name)

    def _on_host_restart(self, server: Server) -> None:
        if self.crashed:
            return  # a successor manager owns rehydration now
        self.runtime.sim.process(
            self._rehydrate(server), name=f"rehydrate-{server.name}"
        )

    def _rehydrate(self, server: Server) -> Generator:
        """Rebuild a restarted server's dropped state from checkpoints.

        Crash realism makes restarts honest: a context still mapped to
        the restarted host whose volatile state was dropped at crash
        time reloads its last checkpointed state, version rolled back to
        the checkpoint's — the gap is accounted as lost work.  Contexts
        the recovery path already restored elsewhere are no longer
        mapped here and are skipped; if a declared recovery for this
        server is still in flight, it owns the subtrees and rehydration
        stands down.
        """
        runtime = self.runtime
        if self.fencing is not None:
            # Re-admission at the current epochs: the restarting server
            # learns it may have been fenced while away (its heartbeats
            # advertise this epoch to the detector).
            server.fencing_epoch = max(
                (self.fencing.epoch(root) for root in self.fencing.roots()),
                default=0,
            )
        if self._recovering.get(server.name):
            return
        for root in self._checkpoint_roots:
            dropped = [
                member
                for member in sorted(subtree_members(runtime, root))
                if runtime.placement.get(member) == server.name
                and runtime.instances.get(member) is not None
                and runtime.instances[member]._aeon_state_dropped
            ]
            if not dropped:
                continue
            bundle = yield from read_checkpoint(
                self.storage, self.checkpoint_key(root), base_size_bytes=None
            )
            bundle = bundle or {}
            for member in dropped:
                instance = runtime.instances.get(member)
                if instance is None:
                    continue
                state = bundle.get(member)
                if state is None:
                    # Nothing durable covers it: the context restarts
                    # empty-handed; clearing the flag lets it serve.
                    instance._aeon_state_dropped = False
                    self.contexts_restored_without_checkpoint += 1
                    continue
                rolled = instance.state_restore(
                    state, restore_version=True, restore_structure=True
                )
                runtime.writes_rolled_back += rolled
                self.rehydrations += 1

    def _on_server_failure(self, server_name: str) -> None:
        # Detector-driven client redirection: push-invalidate every
        # client cache entry pointing at the declared-dead server, so
        # clients re-resolve instead of discovering the corpse one
        # failed event at a time.  Re-declarations re-invalidate, which
        # also clears entries re-cached from a not-yet-remapped
        # authoritative mapping during the outage.
        self.cache_invalidations += self.runtime.invalidate_cached_locations(
            server_name
        )
        self.runtime.sim.process(
            self._recover_server(server_name), name=f"recover-{server_name}"
        )

    def _on_server_recovered(self, server_name: str) -> None:
        # The suspect heartbeats again: a future suspicion is a fresh
        # (possibly false) detection, counted anew.
        self._false_suspects.pop(server_name, None)
        if self.fencing is not None:
            # Re-admit the returning server at the current epochs: its
            # heartbeats carried a stale belief, and overwriting it here
            # mirrors the owner accepting that it lost its leases — it
            # will not serve fenced subtrees as if it still owned them.
            server = self.runtime.cluster.servers.get(server_name)
            if server is not None:
                server.fencing_epoch = max(
                    (self.fencing.epoch(root) for root in self.fencing.roots()),
                    default=0,
                )

    def _recover_server(self, name: str) -> Generator:
        """Re-place everything a dead-*declared* server hosted.

        Legacy path: double-check the simulator's ground truth (via
        :meth:`_ground_truth_alive` — an admitted cheat) and restore
        from the rolling checkpoints.  Honest path (any honest knob on):
        no ground truth — fence the covered subtrees, give the possibly
        merely-partitioned owner a grace window to flush its state
        through cloud storage, then restore from the freshest durable
        image.  Re-declarations while a recovery is in flight are
        coalesced either way.
        """
        if self._recovering.get(name):
            return  # the detector re-declared mid-recovery; one is enough
        self._recovering[name] = True
        try:
            yield from self._recover_server_inner(name)
        finally:
            self._recovering.pop(name, None)

    def _recover_server_inner(self, name: str) -> Generator:
        runtime = self.runtime
        sim = runtime.sim
        if self._honest_mode:
            yield from self._recover_server_honest(name)
            return
        if self._ground_truth_alive(name):
            # The detector was partitioned away from a healthy server;
            # ground truth says nothing was lost.  Real deployments fence
            # instead — here we only count the false alarm (once per
            # suspicion episode, not per lease re-declaration).
            if not self._false_suspects.get(name):
                self._false_suspects[name] = True
                self.false_detections += 1
            return
        lost = self._lost_contexts(name)
        if not lost:
            return
        # Draining servers are about to be decommissioned: restoring a
        # context onto one would move it twice (or strand it).
        targets = sorted(
            (
                s
                for s in runtime.cluster.alive_servers().values()
                if not self._draining.get(s.name)
            ),
            key=lambda s: (s.context_count, s.name),
        )
        if not targets:
            self.recovery_log.append(
                {"server": name, "contexts": len(lost), "status": "no-targets"}
            )
            return
        self.recoveries += 1
        started = sim.now
        # Map each lost context to the checkpoint bundle covering it and
        # download each needed bundle from cloud storage once; the
        # per-context state is then pushed to its new host by restore().
        cover = self._covering_roots(lost)
        bundles: Dict[str, dict] = {}
        for root in sorted(set(cover.values())):
            # Reassemble whatever layout the checkpointer stored: a
            # legacy full bundle, or a base + delta chain.  Reads are
            # priced by the *stored* bundle sizes (a full bundle ships
            # the whole subtree even when only part of it was lost; a
            # chain ships the base plus its deltas).
            value = yield from read_checkpoint(
                self.storage, self.checkpoint_key(root), base_size_bytes=None
            )
            if value:
                bundles[root] = value
        restored, _granted = yield from self._restore_lost(
            lost, cover, bundles, targets
        )
        self.contexts_recovered += restored
        self.recovery_log.append(
            {
                "server": name,
                "contexts": len(lost),
                "restored": restored,
                "started_ms": started,
                "finished_ms": sim.now,
            }
        )

    def _lost_contexts(self, name: str) -> List[str]:
        """The real contexts placed on ``name``, containers first so
        arriving events find the parents settled."""
        ownership = self.runtime.ownership
        return sorted(
            (
                cid
                for cid, host in self.runtime.placement.items()
                if host == name and not ownership.is_virtual(cid)
            ),
            key=lambda cid: (len(ownership.ancestors(cid)), cid),
        )

    def _covering_roots(self, lost: List[str]) -> Dict[str, str]:
        """Each lost context → the checkpoint root whose bundle covers it."""
        cover: Dict[str, str] = {}
        for root in self._checkpoint_roots:
            members = self.runtime.ownership.descendants(root)
            for cid in lost:
                if cid in members and cid not in cover:
                    cover[cid] = root
        return cover

    def _restore_lost(
        self,
        lost: List[str],
        cover: Dict[str, str],
        bundles: Dict[str, dict],
        targets: List[Server],
    ) -> Generator:
        """Restore ``lost`` onto ``targets`` from ``bundles`` and await it.

        One new host per lost subtree: co-location survives recovery.
        Returns ``(restored, granted)``: how many contexts came back,
        and each covered root's new holder.
        """
        assignment: Dict[str, Server] = {}
        rotation = 0
        pending: List[Signal] = []
        granted: Dict[str, str] = {}
        for cid in lost:
            root = cover.get(cid)
            group = root if root is not None else cid
            dst = assignment.get(group)
            if dst is None:
                dst = targets[rotation % len(targets)]
                rotation += 1
                assignment[group] = dst
            state = bundles.get(root, {}).get(cid) if root is not None else None
            if state is None:
                self.contexts_restored_without_checkpoint += 1
            try:
                pending.append(self.coordinator.restore(cid, dst, state))
            except MigrationError:
                # The chosen target died (or the context vanished) while
                # this recovery was in flight.  Skip the context rather
                # than killing the whole recovery process — the rest of
                # the lost set still restores.
                continue
            if root is not None:
                granted[root] = dst.name
        restored = 0
        for signal in pending:
            try:
                yield signal
            except Exception:  # noqa: BLE001 - count what did come back
                continue
            restored += 1
        return restored, granted

    def _recover_server_honest(self, name: str) -> Generator:
        """Fencing-epoch recovery: declaration-driven, no ground truth.

        1. Fence every checkpoint root with members mapped to ``name``
           (epoch bump, persisted under ``fencing/{root}``) — from this
           instant the old owner's writes raise ``FencedError`` even if
           it is alive but partitioned.
        2. Give the fenced owner ``fence_grace_ms`` to run its step-down
           flush: a live owner snapshots its subtrees to cloud storage,
           which is not behind the partitioned network fabric.
        3. Restore each subtree from the flush when one appeared (zero
           lost updates, and durable evidence the detection was false)
           or from the last periodic checkpoint when none did (the
           server really is dead; acked writes past the checkpoint are
           the lost work the availability scoring counts).
        4. Grant each root to its new holder at the fenced epoch.

        With fencing off (``honest_recovery`` alone) steps 1, 2 and 4
        are skipped: recovery rolls straight back to the checkpoint,
        quantifying exactly what the fence prevents.
        """
        runtime = self.runtime
        sim = runtime.sim
        lost = self._lost_contexts(name)
        if not lost:
            return
        cover = self._covering_roots(lost)
        roots = sorted(set(cover.values()))
        fencing = self.fencing
        if fencing is not None:
            persists: List[Signal] = []
            for root in roots:
                epoch = fencing.fence(root)
                persists.append(
                    self.storage.write(f"fencing/{root}", epoch, size_bytes=32)
                )
            for signal in persists:
                yield signal
            # The flush runs *on the victim* (dead servers run nothing);
            # it alone may consult its own liveness.
            sim.process(
                self._step_down_flush(name, roots), name=f"fence-flush-{name}"
            )
            yield sim.timeout(self.fence_grace_ms)
        self.recoveries += 1
        started = sim.now
        bundles: Dict[str, dict] = {}
        flushed_roots = 0
        for root in roots:
            if fencing is not None:
                flush = self.storage.peek(f"fence-flush/{root}")
                if flush:
                    bundles[root] = dict(flush.get("states", {}))
                    flushed_roots += 1
                    self.flush_restores += 1
                    self.storage.delete(f"fence-flush/{root}")
                    continue
            value = yield from read_checkpoint(
                self.storage, self.checkpoint_key(root), base_size_bytes=None
            )
            if value:
                bundles[root] = value
        if flushed_roots and not self._false_suspects.get(name):
            # A flush is durable evidence the declared server was alive
            # — a false detection learned without peeking ground truth.
            self._false_suspects[name] = True
            self.false_detections += 1
        # Restore targets: servers the detector does not currently
        # suspect (the manager's honest belief), minus draining ones and
        # the victim itself.  A target that is in fact dead surfaces as
        # a MigrationError from the restore protocol, not as a peek.
        suspected = set(self._suspected)
        suspected.add(name)
        targets = sorted(
            (
                s
                for s in runtime.cluster.servers.values()
                if s.name not in suspected and not self._draining.get(s.name)
            ),
            key=lambda s: (s.context_count, s.name),
        )
        if not targets:
            self.recovery_log.append(
                {"server": name, "contexts": len(lost), "status": "no-targets"}
            )
            return
        restored, granted = yield from self._restore_lost(
            lost, cover, bundles, targets
        )
        if fencing is not None:
            persists = []
            for root in sorted(granted):
                epoch = fencing.grant(root, granted[root])
                persists.append(
                    self.storage.write(f"fencing/{root}", epoch, size_bytes=32)
                )
            for signal in persists:
                yield signal
        self.contexts_recovered += restored
        self.recovery_log.append(
            {
                "server": name,
                "contexts": len(lost),
                "restored": restored,
                "flushed_roots": flushed_roots,
                "started_ms": started,
                "finished_ms": sim.now,
            }
        )

    def _step_down_flush(self, name: str, roots: List[str]) -> Generator:
        """The fenced owner's step-down handler (runs *on the victim*).

        A declared server that is in fact alive — partitioned, not
        crashed — can no longer serve writes (its subtrees are fenced)
        but can still reach cloud storage.  It flushes the fenced
        subtrees' state there so the manager restores a byte-fresh image
        instead of rolling back to the last periodic checkpoint: the
        difference between zero lost updates and a window of lost work.

        Checking ``server.alive`` here is not a ground-truth cheat: this
        generator models code executing on the victim itself, and dead
        servers run nothing — the absence of a flush after the grace
        window is exactly the manager's (honest) evidence of death.
        """
        runtime = self.runtime
        server = runtime.cluster.servers.get(name)
        if server is None or not server.alive:
            return  # truly dead: no flush ever appears
        writes: List[Signal] = []
        for root in roots:
            states: Dict[str, dict] = {}
            size = 0
            for member in sorted(subtree_members(runtime, root)):
                if runtime.placement.get(member) != name:
                    continue
                instance = runtime.instances.get(member)
                if instance is None or instance._aeon_state_dropped:
                    continue
                states[member] = instance.state_snapshot()
                size += int(getattr(instance, "size_bytes", 1024))
            if not states:
                continue
            epoch = self.fencing.epoch(root) if self.fencing is not None else 0
            writes.append(
                self.storage.write(
                    f"fence-flush/{root}",
                    {"epoch": epoch, "states": states},
                    size_bytes=max(size, 64),
                )
            )
        for signal in writes:
            yield signal

    def _redrive_restores(self) -> Generator:
        """Self-heal restores a failed predecessor left half-done.

        The predecessor's restore journal (``kind="restore"`` WAL
        records) tells the successor exactly which contexts were being
        re-placed and where.  Instead of waiting for the detector to
        re-declare the still-silent server (the old behavior — recovery
        stalled at least a full lease), the successor re-drives each one
        from the covering checkpoint under a fresh migration id and
        retires the stale journal entry.
        """
        runtime = self.runtime
        for payload in sorted(
            self._pending_restores, key=lambda p: int(p.get("migration_id", 0))
        ):
            cid = payload.get("cid")
            stale_key = f"migration/{int(payload.get('migration_id', 0))}"
            dst = runtime.cluster.servers.get(payload.get("dst") or "")
            if (
                cid is None
                or dst is None
                or runtime.instances.get(cid) is None
                or payload.get("step") == "moved"
            ):
                # Unknown context/target, or the state push already
                # landed (only the "done" marker is missing): re-driving
                # would roll back writes the restore already recovered.
                yield self.storage.delete(stale_key)
                continue
            root = None
            for candidate in self._checkpoint_roots:
                if cid in runtime.ownership.descendants(candidate):
                    root = candidate
                    break
            state = None
            if root is not None:
                bundle = yield from read_checkpoint(
                    self.storage, self.checkpoint_key(root), base_size_bytes=None
                )
                if bundle:
                    state = bundle.get(cid)
            if state is None:
                self.contexts_restored_without_checkpoint += 1
            try:
                done = self.coordinator.restore(cid, dst, state)
            except MigrationError:
                yield self.storage.delete(stale_key)
                continue
            try:
                yield done
                self.contexts_recovered += 1
            except Exception:  # noqa: BLE001 - retire the entry regardless
                pass
            yield self.storage.delete(stale_key)
        self._pending_restores = []

    # ------------------------------------------------------------------
    # The control loop
    # ------------------------------------------------------------------
    def _loop(self) -> Generator:
        while self.running and not self.crashed:
            yield self.runtime.sim.timeout(self.report_interval_ms)
            if not self.running or self.crashed:
                return
            snapshot = self.collect_snapshot()
            self.server_count_series.add(
                self.runtime.sim.now, len(snapshot.alive_reports())
            )
            actions = self.policy.decide(snapshot) if self.policy is not None else []
            yield from self._execute(actions, snapshot)
            # Persist the mapping epoch (the stateless-manager story).
            yield self.storage.write(
                "mapping/epoch", self.runtime.ownership.epoch, size_bytes=32
            )

    def collect_snapshot(self) -> ClusterSnapshot:
        """Assemble the cluster state the policy decides on."""
        runtime = self.runtime
        reports = [
            ServerReport(
                name=server.name,
                cpu_utilization=server.utilization_window(),
                context_count=server.context_count,
                alive=server.alive,
            )
            for server in runtime.cluster.servers.values()
        ]
        window_start = max(0.0, runtime.sim.now - self.report_interval_ms)
        latencies = runtime.latency.latencies(since_ms=window_start)
        contexts_by_server: Dict[str, List[str]] = {}
        for cid, server_name in runtime.placement.items():
            if runtime.ownership.is_virtual(cid):
                continue
            contexts_by_server.setdefault(server_name, []).append(cid)
        for listing in contexts_by_server.values():
            listing.sort(key=self._migration_preference)
        return ClusterSnapshot(
            now_ms=runtime.sim.now,
            servers=reports,
            mean_latency_ms=mean(latencies),
            p99_latency_ms=percentile(latencies, 99.0),
            completed_in_window=len(latencies),
            contexts_by_server=contexts_by_server,
        )

    def _migration_preference(self, cid: str) -> tuple:
        """Order contexts within a server for migration picking.

        Prefer contexts that are roots of larger subtrees (the paper
        migrates Rooms, not individual Items): fewer owners first, more
        children first.
        """
        ownership = self.runtime.ownership
        return (len(ownership.parents(cid)), -len(ownership.children(cid)), cid)

    def _execute(self, actions: List[Action], snapshot: ClusterSnapshot) -> Generator:
        pending: List[Signal] = []
        for action in actions:
            if isinstance(action, ScaleOutAction):
                for _ in range(action.count):
                    handle = self.runtime.cluster.provision(self.instance_type)
                    handle.ready.add_callback(
                        lambda _sig, server=handle.server: self._on_booted(server)
                    )
            elif isinstance(action, MigrateAction):
                dst = self.runtime.cluster.servers.get(action.dst_server)
                if dst is None or not dst.alive:
                    continue
                if self.runtime.placement.get(action.cid) == dst.name:
                    continue
                if len(self.coordinator.in_flight()) >= self.max_concurrent_migrations:
                    break
                # Move the context together with its co-located subtree
                # (the paper moves "Room and Player contexts"): migrating
                # a container without its members would leave the load
                # behind and add cross-server hops.
                for member in self._colocated_subtree(action.cid):
                    self.migrations_started += 1
                    pending.append(self.coordinator.migrate(member, dst))
            elif isinstance(action, ScaleInAction):
                yield from self._drain_and_remove(action.server)
        # Wait for this round's migrations (bounded, keeps rounds sane).
        # A failed one surfaces on its signal; swallowing it here keeps
        # the control loop alive (the context simply did not move).
        for signal in pending:
            if not signal.triggered:
                try:
                    yield signal
                except MigrationError:
                    continue

    def _colocated_subtree(self, cid: str) -> List[str]:
        """``cid`` plus its descendants hosted on the same server."""
        runtime = self.runtime
        home = runtime.placement.get(cid)
        members = [
            member
            for member in runtime.ownership.descendants(cid)
            if not runtime.ownership.is_virtual(member)
            and runtime.placement.get(member) == home
        ]
        # Containers first so arriving events find the parents settled.
        # The cid tiebreaker makes the order *total*: descendants() is a
        # set, and leaving same-depth members in set-iteration order
        # made the migration order — and thus whole elastic experiments
        # — depend on the interpreter's hash seed (PYTHONHASHSEED).
        members.sort(key=lambda m: (len(runtime.ownership.ancestors(m)), m))
        return members

    def _on_booted(self, server: Server) -> None:
        self.runtime.attach_server(server)
        if self._crash_drops_state:
            self._hook_server(server)

    def _drain_and_remove(self, server_name: str) -> Generator:
        """Move a server's contexts away, then decommission it.

        One failed migration (a victim concurrently moved, the chosen
        target dying mid-drain) must not kill the control loop: failed
        victims are skipped, the draining flag always clears, and the
        server is decommissioned only once nothing lives on it anymore —
        a partially drained server is retried by a later ScaleIn.
        """
        runtime = self.runtime
        server = runtime.cluster.servers.get(server_name)
        if server is None or self._draining.get(server_name):
            return
        self._draining[server_name] = True
        try:
            victims = [
                cid
                for cid, host in runtime.placement.items()
                if host == server_name and not runtime.ownership.is_virtual(cid)
            ]
            # Never drain onto a server that is itself being drained (two
            # concurrent ScaleIns would ping-pong contexts onto a machine
            # about to disappear).
            targets = [
                s
                for s in runtime.cluster.alive_servers().values()
                if s.name != server_name and not self._draining.get(s.name)
            ]
            if not targets:
                return
            targets.sort(key=lambda s: (s.context_count, s.name))
            for index, cid in enumerate(victims):
                dst = targets[index % len(targets)]
                try:
                    done = self.coordinator.migrate(cid, dst)
                except MigrationError:
                    continue  # already moved / destination gone: skip
                self.migrations_started += 1
                try:
                    yield done
                except MigrationError:
                    continue  # failed mid-flight: the victim stays put
            leftovers = any(
                host == server_name and not runtime.ownership.is_virtual(cid)
                for cid, host in runtime.placement.items()
            )
            if leftovers:
                return
            runtime.cluster.decommission(server_name)
            runtime.network.unregister(server_name)
            # Push-invalidate client location caches pointing at the
            # decommissioned endpoint (nothing will answer there again).
            self.cache_invalidations += self.runtime.invalidate_cached_locations(
                server_name
            )
        finally:
            self._draining.pop(server_name, None)
