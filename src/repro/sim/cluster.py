"""Simulated servers and EC2-like instance types.

The paper deploys on ``m3.large`` (scalability experiments), ``m1.small``
(elastic game cluster) and ``m1.large``/``m1.medium``/``m1.small``
(migration-throughput microbenchmark, Fig. 9).  An instance type here is
a CPU core count, a relative speed factor and a NIC bandwidth — enough to
reproduce the relative ordering of those setups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from .kernel import Simulator
from .queues import Resource

__all__ = [
    "InstanceType",
    "M1_SMALL",
    "M1_MEDIUM",
    "M1_LARGE",
    "M3_LARGE",
    "INSTANCE_TYPES",
    "Server",
    "Cluster",
]


@dataclass(frozen=True)
class InstanceType:
    """An EC2-like machine shape.

    ``speed`` scales CPU costs (1.0 = one m1.small-class core);
    ``nic_gbps`` bounds migration/transfer bandwidth.
    """

    name: str
    cores: int
    speed: float
    nic_gbps: float

    def cpu_ms(self, work_ms: float) -> float:
        """Wall milliseconds one core needs for ``work_ms`` of unit work."""
        return work_ms / self.speed


M1_SMALL = InstanceType("m1.small", cores=1, speed=1.0, nic_gbps=0.25)
M1_MEDIUM = InstanceType("m1.medium", cores=1, speed=2.0, nic_gbps=0.45)
M1_LARGE = InstanceType("m1.large", cores=2, speed=2.0, nic_gbps=0.7)
M3_LARGE = InstanceType("m3.large", cores=2, speed=2.6, nic_gbps=0.7)

INSTANCE_TYPES: Dict[str, InstanceType] = {
    t.name: t for t in (M1_SMALL, M1_MEDIUM, M1_LARGE, M3_LARGE)
}


class Server:
    """A simulated machine: CPU cores, NIC, and accounting.

    Runtimes place contexts/grains on servers; executing application or
    protocol work occupies a core for the scaled duration.  The server's
    name is its endpoint on :class:`repro.sim.network.Network`.
    """

    def __init__(self, sim: Simulator, name: str, itype: InstanceType) -> None:
        self.sim = sim
        self.name = name
        self.itype = itype
        self.cpu = Resource(sim, capacity=itype.cores, name=f"cpu:{name}")
        self.context_count = 0
        self.alive = True
        # Fail-stop state (driven by repro.faults.FaultInjector).
        self.crashed = False
        self.crashed_at_ms: Optional[float] = None
        self.crash_count = 0
        #: Hooks fired inside crash()/restart() (with fault tolerance
        #: on, the eManager drops volatile context state at crash time
        #: and rehydrates from the durable checkpoint on restart).
        self.on_crash: List[Callable[["Server"], None]] = []
        self.on_restart: List[Callable[["Server"], None]] = []
        self._util_mark_busy = 0.0
        self._util_mark_time = 0.0

    # ------------------------------------------------------------------
    # Fail-stop faults
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Fail-stop the server.

        The machine object (and the contexts the runtime still maps to
        it) stay around so a recovery manager can enumerate what was
        lost.  A down server sends no heartbeats; a crash the fault
        injector applies also fails every hop to or from it.  With fault
        tolerance on, the eManager's ``on_crash`` hook drops the
        in-memory state of the contexts hosted here, so even a restart
        faster than the detector's lease is a true fail-stop.
        """
        self.alive = False
        self.crashed = True
        self.crashed_at_ms = self.sim.now
        self.crash_count += 1
        for hook in self.on_crash:
            hook(self)

    def restart(self) -> None:
        """Bring a crashed server back up.

        With fault tolerance on, the state of the contexts the runtime
        still maps here was dropped at crash time, and the eManager's
        ``on_restart`` hook rehydrates it from the durable checkpoint
        before they serve again.  Contexts already re-placed elsewhere
        stay there.
        """
        self.alive = True
        self.crashed = False
        self.crashed_at_ms = None
        for hook in self.on_restart:
            hook(self)

    # ------------------------------------------------------------------
    # Utilization reporting (consumed by the eManager)
    # ------------------------------------------------------------------
    def utilization_window(self) -> float:
        """CPU utilization (0..1) since the previous call to this method."""
        busy = self.cpu.busy_core_ms()
        now = self.sim.now
        elapsed = now - self._util_mark_time
        delta = busy - self._util_mark_busy
        self._util_mark_busy = busy
        self._util_mark_time = now
        if elapsed <= 0:
            return 0.0
        return min(1.0, delta / (elapsed * self.cpu.capacity))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Server {self.name} ({self.itype.name})>"


class Cluster:
    """A named collection of servers with a provisioning pool.

    ``provision``/``decommission`` model elastic scale-out/in: a newly
    provisioned server becomes usable only after ``boot_delay_ms``
    (the paper's elastic experiment pays this as migration lead time).
    """

    def __init__(self, sim: Simulator, boot_delay_ms: float = 8000.0) -> None:
        self.sim = sim
        self.boot_delay_ms = boot_delay_ms
        self.servers: Dict[str, Server] = {}
        self._counter = 0

    def add_server(self, itype: InstanceType, name: Optional[str] = None) -> Server:
        """Immediately add a booted server (initial deployment)."""
        self._counter += 1
        name = name or f"server-{self._counter}"
        if name in self.servers:
            raise ValueError(f"duplicate server name {name!r}")
        server = Server(self.sim, name, itype)
        self.servers[name] = server
        return server

    def provision(self, itype: InstanceType) -> "ProvisionHandle":
        """Start booting a new server; ready after ``boot_delay_ms``."""
        server = self.add_server(itype)
        server.alive = False
        ready = self.sim.signal(name=f"boot:{server.name}")

        def booted() -> None:
            server.alive = True
            ready.succeed(server)

        self.sim.schedule(self.boot_delay_ms, booted)
        return ProvisionHandle(server, ready)

    def decommission(self, name: str) -> None:
        """Remove a (drained) server from the cluster."""
        server = self.servers.pop(name)
        server.alive = False

    def alive_servers(self) -> Dict[str, Server]:
        """Servers currently booted and usable."""
        return {n: s for n, s in self.servers.items() if s.alive}

    def close(self) -> None:
        """End of the run: drop the servers' crash/restart hooks.

        A hook leads to the recovery manager that installed it, and from
        there to the runtime and back to this cluster.  Idempotent.
        """
        for server in self.servers.values():
            server.on_crash.clear()
            server.on_restart.clear()

    def __len__(self) -> int:
        return len(self.servers)


@dataclass
class ProvisionHandle:
    """A server being booted plus the signal firing when it is usable."""

    server: Server
    ready: "object"
