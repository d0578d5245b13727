"""Elasticity policy (§5.2): when to scale and where contexts migrate.

The eManager periodically assembles a :class:`ClusterSnapshot` (server
utilization, context counts, recent latency) and asks its policy for
:class:`Action` objects.  One policy is implemented: :class:`SLAPolicy`,
the §6.2 experiment's — scale out while the mean request latency
exceeds the SLA, scale in when comfortably under, within
``min_servers``/``max_servers``.  The paper's §5.2 also names
utilization-bound and contexts-per-server policies; no §6 figure or
registered scenario runs them, so they are not modelled.  The eManager
duck-types ``policy.decide(snapshot)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

__all__ = [
    "ServerReport",
    "ClusterSnapshot",
    "Action",
    "MigrateAction",
    "ScaleOutAction",
    "ScaleInAction",
    "SLAPolicy",
]


@dataclass(frozen=True)
class ServerReport:
    """One server's periodic resource report (§5.2: CPU, memory, IO)."""

    name: str
    cpu_utilization: float
    context_count: int
    alive: bool


@dataclass(frozen=True)
class ClusterSnapshot:
    """Everything a policy may base decisions on."""

    now_ms: float
    servers: Sequence[ServerReport]
    mean_latency_ms: float
    p99_latency_ms: float
    completed_in_window: int
    contexts_by_server: Dict[str, List[str]]

    def alive_reports(self) -> List[ServerReport]:
        """Reports of booted servers only."""
        return [r for r in self.servers if r.alive]


class Action:
    """Base class of policy decisions."""


@dataclass(frozen=True)
class MigrateAction(Action):
    """Move one context to a destination server."""

    cid: str
    dst_server: str


@dataclass(frozen=True)
class ScaleOutAction(Action):
    """Provision ``count`` new servers of the deployment's type."""

    count: int = 1


@dataclass(frozen=True)
class ScaleInAction(Action):
    """Drain and decommission one server."""

    server: str


class SLAPolicy:
    """Scale out while latency violates the SLA; scale in when idle.

    The §6.2 experiment: SLA of 10 ms on client requests; scale-out adds
    servers and rebalances the hottest servers' contexts onto them;
    scale-in removes the emptiest server when latency is comfortably
    below the SLA (hysteresis factor).  ``min_servers``/``max_servers``
    bound every scaling decision.
    """

    def __init__(
        self,
        sla_ms: float = 10.0,
        scale_out_step: int = 2,
        scale_in_fraction: float = 0.4,
        headroom: float = 0.6,
        min_servers: int = 1,
        max_servers: int = 64,
    ) -> None:
        self.sla_ms = sla_ms
        self.scale_out_step = scale_out_step
        self.scale_in_fraction = scale_in_fraction
        #: Scale out when latency exceeds ``headroom * sla`` — acting at
        #: the SLA itself would always lag the ramp by a boot time.
        self.headroom = headroom
        self.min_servers = min_servers
        self.max_servers = max_servers

    def decide(self, snapshot: ClusterSnapshot) -> List[Action]:
        """Return the actions to perform for this reporting period."""
        actions: List[Action] = []
        alive = snapshot.alive_reports()
        if snapshot.completed_in_window == 0:
            return []
        if snapshot.mean_latency_ms > self.sla_ms * self.headroom:
            actions.append(ScaleOutAction(count=self.scale_out_step))
            # Rebalance immediately toward the emptiest alive servers.
            loaded = sorted(alive, key=lambda r: -r.context_count)
            light = sorted(alive, key=lambda r: r.context_count)
            hot = [r for r in loaded if r.context_count > 1][: self.scale_out_step]
            cold = [r for r in light if r.context_count == 0] or light[:1]
            actions.extend(self._spread(snapshot, hot, cold))
        elif snapshot.mean_latency_ms < self.sla_ms * self.scale_in_fraction:
            empty_first = sorted(alive, key=lambda r: (r.context_count, r.name))
            if empty_first and len(alive) > self.min_servers:
                victim = empty_first[0]
                actions.append(ScaleInAction(server=victim.name))
        return self._admit(actions, snapshot)

    def _admit(self, actions: List[Action], snapshot: ClusterSnapshot) -> List[Action]:
        """Apply the scaling bounds to proposed actions."""
        admitted: List[Action] = []
        alive = len(snapshot.alive_reports())
        for action in actions:
            if isinstance(action, MigrateAction):
                admitted.append(action)
            elif isinstance(action, ScaleOutAction):
                allowed = max(0, self.max_servers - alive)
                if allowed > 0:
                    admitted.append(ScaleOutAction(min(action.count, allowed)))
                    alive += min(action.count, allowed)
            elif isinstance(action, ScaleInAction):
                if alive > self.min_servers:
                    admitted.append(action)
                    alive -= 1
        return admitted

    @staticmethod
    def _spread(
        snapshot: ClusterSnapshot, sources: List[ServerReport], targets: List[ServerReport]
    ) -> List[Action]:
        """Propose moving one context from each source to a target."""
        actions: List[Action] = []
        if not targets:
            return actions
        target_cycle = sorted(targets, key=lambda r: (r.context_count, r.name))
        for index, src in enumerate(sources):
            contexts = snapshot.contexts_by_server.get(src.name, [])
            if not contexts:
                continue
            dst = target_cycle[index % len(target_cycle)]
            if dst.name == src.name:
                continue
            actions.append(MigrateAction(cid=contexts[0], dst_server=dst.name))
        return actions
