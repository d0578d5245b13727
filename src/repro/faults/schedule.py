"""Declarative fault schedules: what breaks, when, for how long.

A :class:`FaultSchedule` is a plain list of fault events pinned to the
simulator clock — the experiment equivalent of a chaos-engineering
scenario file.  Two fault kinds cover the availability studies:

* :class:`ServerCrash` — fail-stop a server (optionally restarting it
  after a delay); the paper's §5.3 recovery story is driven by these;
* :class:`NetworkPartition` — sever all traffic between two endpoint
  groups for a window.

Schedules are data, not behaviour: :class:`repro.faults.FaultInjector`
turns one into scheduled simulator callbacks.  :func:`random_churn`
generates crash/restart churn deterministically from a named
:class:`repro.sim.rng.RngRegistry` stream, so adding churn to an
experiment never perturbs its other random draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from ..sim.rng import RngRegistry

__all__ = [
    "ServerCrash",
    "NetworkPartition",
    "FaultEvent",
    "FaultSchedule",
    "random_churn",
]


@dataclass(frozen=True)
class ServerCrash:
    """Fail-stop ``server`` at ``at_ms``; restart after ``restart_after_ms``.

    ``restart_after_ms=None`` leaves the server down for the rest of the
    run (recovery then happens purely by re-placement).

    Modeling note: once an eManager's fault tolerance is enabled, the
    volatile state of every hosted context is dropped *at crash time*
    (via the server's ``on_crash`` hooks), and a restart rehydrates from
    the last checkpoint instead of resurrecting pre-crash memory, however
    fast it comes back.  Keep ``restart_after_ms`` above the detection
    latency when the experiment is about recovery
    (:func:`random_churn`'s default 2–8 s restarts clear the default
    650 ms lease comfortably).
    """

    at_ms: float
    server: str
    restart_after_ms: Optional[float] = None


@dataclass(frozen=True)
class NetworkPartition:
    """No traffic between ``group_a`` and ``group_b`` for ``duration_ms``.

    Process-style hops across the cut raise
    :class:`~repro.sim.network.DeliveryError`; fire-and-forget messages
    (heartbeats) are silently dropped.  Traffic within each group is
    unaffected.
    """

    at_ms: float
    duration_ms: float
    group_a: Tuple[str, ...]
    group_b: Tuple[str, ...]


FaultEvent = Union[ServerCrash, NetworkPartition]


@dataclass
class FaultSchedule:
    """An ordered plan of fault events for one run.

    Data, not behaviour: build one (or generate it with
    :func:`random_churn`), hand it to a
    :class:`~repro.faults.FaultInjector`, call ``injector.start()``.
    An empty schedule installs nothing and keeps traces byte-identical
    to a fault-free run.  See docs/ARCHITECTURE.md § layer map.
    """

    faults: List[FaultEvent] = field(default_factory=list)

    def add(self, fault: FaultEvent) -> "FaultSchedule":
        """Append one fault event; returns self for chaining."""
        self.faults.append(fault)
        return self

    @property
    def empty(self) -> bool:
        """True when the schedule injects nothing (the happy path)."""
        return not self.faults

    def ordered(self) -> List[FaultEvent]:
        """Fault events sorted by injection time (stable)."""
        return sorted(self.faults, key=lambda f: f.at_ms)

    def validate(self) -> None:
        """Reject schedules the injector cannot realize."""
        for fault in self.faults:
            if fault.at_ms < 0:
                raise ValueError(f"fault scheduled in the past: {fault}")
            if isinstance(fault, ServerCrash):
                if fault.restart_after_ms is not None and fault.restart_after_ms <= 0:
                    raise ValueError(f"non-positive restart delay: {fault}")
            elif isinstance(fault, NetworkPartition):
                if fault.duration_ms <= 0:
                    raise ValueError(f"non-positive partition window: {fault}")
                if not fault.group_a or not fault.group_b:
                    raise ValueError(f"partition needs two non-empty groups: {fault}")
                if set(fault.group_a) & set(fault.group_b):
                    raise ValueError(f"partition groups overlap: {fault}")
            else:
                raise TypeError(f"unknown fault event {fault!r}")

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.faults)


def random_churn(
    servers: Sequence[str],
    duration_ms: float,
    rng: RngRegistry,
    mean_time_between_crashes_ms: float = 20_000.0,
    restart_delay_ms: Tuple[float, float] = (2_000.0, 8_000.0),
    start_ms: float = 1_000.0,
) -> FaultSchedule:
    """Generate deterministic crash/restart churn over ``servers``.

    Crash arrivals are exponential with the given mean; the victim is
    uniform; restart delays are uniform in ``restart_delay_ms``.  At most
    one server is down at a time (the next crash is drawn after the
    previous restart), so the cluster never loses quorum entirely.  All
    draws come from the registry's ``"faults/churn"`` stream — existing
    experiment randomness is untouched.  Returns the generated
    :class:`FaultSchedule`.  Drives ``fig11`` — see docs/EXPERIMENTS.md
    § fig11.
    """
    if not servers:
        raise ValueError("random_churn needs at least one server name")
    stream = rng.stream("faults/churn")
    schedule = FaultSchedule()
    low, high = restart_delay_ms
    now = start_ms
    while True:
        now += stream.expovariate(1.0 / mean_time_between_crashes_ms)
        if now >= duration_ms:
            break
        victim = servers[stream.randrange(len(servers))]
        restart_after = stream.uniform(low, high)
        schedule.add(ServerCrash(now, victim, restart_after_ms=restart_after))
        now += restart_after
    return schedule
