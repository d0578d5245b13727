"""Heartbeat/lease failure detection over the simulated network.

Every watched server runs a heartbeat sender: while the server is up it
sends a small message to the detector endpoint each interval — **real
network traffic**, so partitions and the crash itself all
affect detection exactly as they would a production detector (including
false positives when only the detector's links are cut).

The detector grants each server a lease; a monitor loop declares a
server *suspected* once its lease expires without a heartbeat, firing
the registered failure callbacks (the eManager's recovery hook).  A
heartbeat from a suspected server (a restart, or a healed partition)
clears the suspicion and fires the recovery callbacks.  A heartbeat's
payload is the sender's name, and its delivery callback renews the lease.

Each declaration is recorded as a :class:`Detection`; its latency —
declared-at minus the server's actual crash time — is the subsystem's
headline metric (the fig10/fig11 cells average it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Generator, List, Optional, Set

from ..sim.cluster import Cluster, Server
from ..sim.network import Network
from ..sim.kernel import Simulator

__all__ = ["Detection", "FailureDetector"]


@dataclass(frozen=True)
class Detection:
    """One declared failure: who, when declared, when actually crashed."""

    server: str
    detected_at_ms: float
    crashed_at_ms: Optional[float]  # None: a false positive (never crashed)

    @property
    def latency_ms(self) -> Optional[float]:
        """Crash-to-declaration delay (None for false positives)."""
        if self.crashed_at_ms is None:
            return None
        return self.detected_at_ms - self.crashed_at_ms


class FailureDetector:
    """Lease-based failure detector endpoint on the network fabric.

    Servers send a ``HEARTBEAT_BYTES`` heartbeat every
    ``heartbeat_interval_ms`` over the *real* simulated network to the
    ``~fdetector`` endpoint; a server whose lease (``lease_ms``) expires
    is declared dead on the next check (every ``check_interval_ms``),
    recorded as a :class:`Detection` (with crash-to-declaration latency)
    and pushed to subscribers — the eManager's recovery hook and client
    location-cache invalidation.  :attr:`suspected` is the live set of
    declared-dead servers.  Call :meth:`start` after construction and
    :meth:`stop` when the run ends.  See docs/EXPERIMENTS.md § fig10 and
    docs/ARCHITECTURE.md § layer map.
    """

    HEARTBEAT_BYTES = 64

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        cluster: Cluster,
        heartbeat_interval_ms: float = 200.0,
        lease_ms: float = 650.0,
        check_interval_ms: float = 100.0,
    ) -> None:
        if lease_ms <= heartbeat_interval_ms:
            raise ValueError("lease must outlast the heartbeat interval")
        self.sim = sim
        self.network = network
        self.cluster = cluster
        self.name = "~fdetector"
        self.heartbeat_interval_ms = heartbeat_interval_ms
        self.lease_ms = lease_ms
        self.check_interval_ms = check_interval_ms
        if not network.is_registered(self.name):
            network.register(self.name)
        self.running = False
        self.suspected: Set[str] = set()
        self.detections: List[Detection] = []
        self.heartbeats_received = 0
        self.redeclarations = 0
        self._last_seen: Dict[str, float] = {}
        self._declared_at: Dict[str, float] = {}
        self._watched: Set[str] = set()
        # Bumped on every start(): loops spawned by an earlier start die
        # at their next tick, so stop()/start() cycles never leave stale
        # senders or duplicate monitors behind.
        self._generation = 0
        self._on_failure: List[Callable[[str], None]] = []
        self._on_recovery: List[Callable[[str], None]] = []

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def on_failure(self, callback: Callable[[str], None]) -> None:
        """Call ``callback(server_name)`` when a server is declared dead."""
        self._on_failure.append(callback)

    def on_recovery(self, callback: Callable[[str], None]) -> None:
        """Call ``callback(server_name)`` when a suspect heartbeats again."""
        self._on_recovery.append(callback)

    def start(self) -> None:
        """Watch every booted cluster server and begin monitoring.

        Membership stays live: servers provisioned later are watched
        once booted, decommissioned ones are forgotten.  The heartbeat
        senders and the monitor loop run until :meth:`stop`; a bare
        ``sim.run()`` (no horizon) would therefore never terminate while
        a detector is running.
        """
        if self.running:
            return
        self.running = True
        self._generation += 1
        # Fresh watch state: leases restart now, suspicions are dropped
        # (a restarted detector has no knowledge), and watch() respawns
        # a sender for every current server.
        self._watched.clear()
        self._last_seen.clear()
        self.suspected.clear()
        self._declared_at.clear()
        for name in sorted(self.cluster.servers):
            server = self.cluster.servers[name]
            if server.alive:  # still-booting servers are watched on boot
                self.watch(server)
        self.sim.process(self._monitor(self._generation), name="fdetector-monitor")

    def stop(self) -> None:
        """Stop all detector loops at their next tick."""
        self.running = False

    def watch(self, server: Server) -> None:
        """Start heartbeating ``server`` (lease granted as of now)."""
        if server.name in self._watched:
            return
        self._watched.add(server.name)
        self._last_seen[server.name] = self.sim.now
        self.sim.process(
            self._sender(server, self._generation), name=f"hb:{server.name}"
        )

    # ------------------------------------------------------------------
    # Processes
    # ------------------------------------------------------------------
    def _sender(self, server: Server, generation: int) -> Generator:
        interval = float(self.heartbeat_interval_ms)
        # The loop dies with the detector (stop or restart) or with the
        # server's cluster membership (decommissioned servers stop
        # heartbeating for good).
        while (
            self.running
            and generation == self._generation
            and server.name in self.cluster.servers
        ):
            if server.alive:
                self.network.send(
                    server.name,
                    self.name,
                    server.name,
                    size_bytes=self.HEARTBEAT_BYTES,
                    on_delivered=self._on_heartbeat,
                )
            yield interval

    def _on_heartbeat(self, source: str) -> None:
        """Renew ``source``'s lease; a suspect that heartbeats recovers.

        Runs inside the heartbeat's delivery timer, not from the
        immediate queue: a monitor tick due at the exact float instant
        of a delivery armed before it counts that heartbeat.  No pinned
        run has a tick and a delivery coincide.  A stopped detector
        ignores the heartbeats still in flight.
        """
        if not self.running:
            return
        self.heartbeats_received += 1
        self._last_seen[source] = self.sim.now
        if source in self.suspected:
            self.suspected.discard(source)
            self._declared_at.pop(source, None)
            for callback in self._on_recovery:
                callback(source)

    def _monitor(self, generation: int) -> Generator:
        interval = float(self.check_interval_ms)
        while self.running and generation == self._generation:
            yield interval
            # Track cluster membership: servers provisioned after
            # start() are watched once booted (their lease starts then),
            # and decommissioned servers are forgotten — scale-in is not
            # a failure.
            servers = self.cluster.servers
            for name in sorted(servers.keys() - self._watched):
                if servers[name].alive:
                    self.watch(servers[name])
            for name in sorted(self._watched - servers.keys()):
                self._watched.discard(name)
                self._last_seen.pop(name, None)
                self.suspected.discard(name)
                self._declared_at.pop(name, None)
            now = self.sim.now
            lease = self.lease_ms
            for name in sorted(self._watched):
                if name in self.suspected:
                    # A suspect that stays silent is re-declared every
                    # lease: a server that truly crashes *while already
                    # suspected* (a partition false-positive that turned
                    # real) would otherwise never fire the recovery hook
                    # again.  Re-declarations are idempotent downstream
                    # (nothing lost -> nothing restored) and are counted
                    # separately, not as fresh detections.
                    if now - self._declared_at.get(name, now) >= lease:
                        self._declared_at[name] = now
                        self.redeclarations += 1
                        for callback in self._on_failure:
                            callback(name)
                    continue
                if now - self._last_seen[name] <= lease:
                    continue
                self.suspected.add(name)
                self._declared_at[name] = now
                server = self.cluster.servers.get(name)
                crashed_at = server.crashed_at_ms if server is not None else None
                self.detections.append(Detection(name, now, crashed_at))
                for callback in self._on_failure:
                    callback(name)
