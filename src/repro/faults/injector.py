"""The fault injector: turns a :class:`FaultSchedule` into simulator events.

The injector owns the *ground truth* of what is broken at any instant:

* crashed servers — marked down on the :class:`~repro.sim.cluster.Server`
  (``crash()``) and recorded in the shared :class:`NetworkFaults` filter
  so traffic involving them fails;
* active partitions — windows registered/removed on the filter at their
  scheduled boundaries.

With an **empty schedule nothing is installed at all** — ``Network.fault``
stays ``None`` and every trace is byte-identical to a fault-free run
(this is pinned by the determinism tests).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..sim.cluster import Cluster
from ..sim.kernel import Simulator
from ..sim.network import DeliveryError, Network
from .schedule import FaultSchedule, NetworkPartition, ServerCrash

__all__ = ["NetworkFaults", "FaultInjector"]


class NetworkFaults:
    """The live fault state consulted by :class:`repro.sim.network.Network`.

    Implements the duck-typed filter protocol documented in
    :mod:`repro.sim.network`: ``check_hop`` for process-style hops
    (raises :class:`DeliveryError` when unreachable), and ``drops`` for
    fire-and-forget messages.
    """

    def __init__(self) -> None:
        self.down: Set[str] = set()
        self._partitions: Dict[int, Tuple[frozenset, frozenset]] = {}

    # -- state transitions (driven by the injector) --------------------
    def mark_down(self, name: str) -> None:
        """Record ``name`` as crashed."""
        self.down.add(name)

    def mark_up(self, name: str) -> None:
        """Record ``name`` as back up."""
        self.down.discard(name)

    def add_partition(self, key: int, group_a, group_b) -> None:
        """Activate a partition window."""
        self._partitions[key] = (frozenset(group_a), frozenset(group_b))

    def remove_partition(self, key: int) -> None:
        """Deactivate a partition window."""
        self._partitions.pop(key, None)

    # -- the filter protocol -------------------------------------------
    def _partitioned(self, src: str, dst: str) -> bool:
        for group_a, group_b in self._partitions.values():
            if (src in group_a and dst in group_b) or (
                src in group_b and dst in group_a
            ):
                return True
        return False

    def check_hop(self, src: str, dst: str) -> None:
        """Raise :class:`DeliveryError` when a process hop cannot arrive."""
        down = self.down
        if src in down or dst in down:
            victim = dst if dst in down else src
            raise DeliveryError(f"endpoint {victim!r} is down")
        if self._partitions and self._partitioned(src, dst):
            raise DeliveryError(f"network partition between {src!r} and {dst!r}")

    def drops(self, src: str, dst: str) -> bool:
        """Whether a fire-and-forget message from ``src`` to ``dst`` is lost."""
        down = self.down
        return src in down or dst in down or bool(
            self._partitions and self._partitioned(src, dst)
        )


class FaultInjector:
    """Schedules a :class:`FaultSchedule`'s events on the simulator clock.

    Args: the testbed's ``sim``/``network``/``cluster`` and the
    ``schedule`` to apply.  Call :meth:`start` once before ``sim.run``;
    applied transitions land in :attr:`log`.  Used by ``fig10``/``fig11``
    — see docs/EXPERIMENTS.md and docs/ARCHITECTURE.md § layer map.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        cluster: Cluster,
        schedule: FaultSchedule,
    ) -> None:
        self.sim = sim
        self.network = network
        self.cluster = cluster
        self.schedule = schedule
        self.state: Optional[NetworkFaults] = None
        #: ``(time_ms, description)`` log of every applied transition.
        self.log: List[Tuple[float, str]] = []
        self.started = False

    def start(self) -> None:
        """Install the fault filter and schedule every fault event.

        A no-op for an empty schedule: the network keeps ``fault=None``
        and the run stays byte-identical to a fault-free one.
        """
        if self.started:
            return
        self.started = True
        if self.schedule.empty:
            return
        self.schedule.validate()
        self.state = NetworkFaults()
        self.network.fault = self.state
        now = self.sim.now
        counter = 0
        for fault in self.schedule.ordered():
            counter += 1
            delay = max(0.0, fault.at_ms - now)
            if isinstance(fault, ServerCrash):
                self.sim.schedule(delay, self._apply_crash, fault)
            else:
                self.sim.schedule(delay, self._apply_partition, counter, fault)

    # -- appliers -------------------------------------------------------
    def _note(self, text: str) -> None:
        self.log.append((self.sim.now, text))

    def _apply_crash(self, fault: ServerCrash) -> None:
        server = self.cluster.servers.get(fault.server)
        if server is None or not server.alive:
            self._note(f"crash of {fault.server} skipped (absent or already down)")
            return
        server.crash()
        self.state.mark_down(fault.server)
        self._note(f"server {fault.server} crashed")
        if fault.restart_after_ms is not None:
            self.sim.schedule(fault.restart_after_ms, self._apply_restart, fault.server)

    def _apply_restart(self, name: str) -> None:
        server = self.cluster.servers.get(name)
        if server is None or not server.crashed:
            self._note(f"restart of {name} skipped (absent or not crashed)")
            return
        server.restart()
        self.state.mark_up(name)
        self._note(f"server {name} restarted")

    def _apply_partition(self, key: int, fault: NetworkPartition) -> None:
        self.state.add_partition(key, fault.group_a, fault.group_b)
        self._note(
            f"partition {sorted(fault.group_a)} | {sorted(fault.group_b)} "
            f"for {fault.duration_ms:.0f} ms"
        )
        self.sim.schedule(fault.duration_ms, self._heal_partition, key)

    def _heal_partition(self, key: int) -> None:
        self.state.remove_partition(key)
        self._note("partition healed")
