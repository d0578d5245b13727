"""Client/workload generators driving the applications.

Two client styles cover every experiment:

* :class:`ClosedLoopClients` — N clients that submit, wait for the
  reply, think, repeat (the paper's throughput/latency sweeps);
* :class:`RampProfile` + :class:`DynamicClients` — a population of
  clients that follows a target-count profile over time (the §6.2
  elasticity experiment's normally distributed 1→16 clients per client
  machine).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from typing import Callable, Generator, List, Optional, Tuple

from ..core.errors import is_retryable
from ..core.events import CallSpec
from ..core.runtime import RuntimeBase
from ..sim.rng import RngRegistry

__all__ = ["OpSampler", "ClosedLoopClients", "RampProfile", "DynamicClients"]

#: A function drawing one client operation: ``rng -> (spec, tag)``.
OpSampler = Callable[[Random], Tuple[CallSpec, str]]


class ClosedLoopClients:
    """A fixed population of think-time closed-loop clients."""

    #: Mean of the exponential backoff before a retry.
    RETRY_BACKOFF_MS = 4.0

    def __init__(
        self,
        runtime: RuntimeBase,
        sampler: OpSampler,
        n_clients: int,
        think_ms: float = 2.0,
        rng: Optional[RngRegistry] = None,
        stop_at_ms: Optional[float] = None,
        name_prefix: str = "client",
        max_retries: int = 0,
    ) -> None:
        if n_clients < 1:
            raise ValueError("need at least one client")
        self.runtime = runtime
        self.sampler = sampler
        self.n_clients = n_clients
        self.think_ms = think_ms
        self.rng = rng or RngRegistry(0)
        self.stop_at_ms = stop_at_ms
        self.name_prefix = name_prefix
        #: Resubmissions allowed per operation when it fails with a
        #: *retryable* error (delivery failures during a crash or
        #: partition).  0 (the default) keeps the fault-free behaviour —
        #: and the fault-free RNG streams — exactly as before.
        self.max_retries = max_retries
        self.retries = 0
        self.errors: List[BaseException] = []

    def start(self) -> None:
        """Spawn all client loops."""
        for index in range(self.n_clients):
            self.runtime.sim.process(
                self._loop(index), name=f"{self.name_prefix}-{index}"
            )

    def _loop(self, index: int) -> Generator:
        runtime = self.runtime
        sim = runtime.sim
        handle = runtime.register_client(f"{self.name_prefix}-{index}")
        stream = self.rng.stream(f"{self.name_prefix}-{index}")
        sampler = self.sampler
        submit = runtime.submit
        stop_at = self.stop_at_ms
        think_rate = 1.0 / self.think_ms if self.think_ms > 0 else None
        expovariate = stream.expovariate
        max_retries = self.max_retries
        backoff_rate = 1.0 / self.RETRY_BACKOFF_MS
        while stop_at is None or sim.now < stop_at:
            spec, tag = sampler(stream)
            event = yield submit(handle, spec, tag=tag)
            if event is not None and event.error is not None:
                self.errors.append(event.error)
                # Retryable failures (the target's server crashed or was
                # partitioned away mid-event) are resubmitted after a
                # short backoff, up to the per-op budget.
                attempts = 0
                while (
                    attempts < max_retries
                    and event is not None
                    and event.error is not None
                    and is_retryable(event.error)
                    and (stop_at is None or sim.now < stop_at)
                ):
                    attempts += 1
                    self.retries += 1
                    yield stream.expovariate(backoff_rate)
                    event = yield submit(handle, spec, tag=tag)
                    if event is not None and event.error is not None:
                        self.errors.append(event.error)
            if think_rate is not None:
                yield expovariate(think_rate)


@dataclass
class RampProfile:
    """A time-varying target client count.

    The §6.2 experiment varies clients per machine 1→16 following a
    normal-shaped curve peaking mid-experiment; :meth:`normal_peak`
    builds exactly that shape.  Both builders sample their curve at
    ``STEPS + 1`` evenly spaced instants.
    """

    STEPS = 48

    points: List[Tuple[float, int]]

    @classmethod
    def normal_peak(
        cls,
        duration_ms: float,
        machines: int = 8,
        min_per_machine: int = 1,
        max_per_machine: int = 16,
    ) -> "RampProfile":
        """Clients per machine follow a Gaussian bump over the run."""
        points: List[Tuple[float, int]] = []
        mid = duration_ms / 2.0
        sigma = duration_ms / 6.0
        steps = cls.STEPS
        for step in range(steps + 1):
            t = duration_ms * step / steps
            bump = math.exp(-((t - mid) ** 2) / (2 * sigma**2))
            per_machine = min_per_machine + (max_per_machine - min_per_machine) * bump
            points.append((t, int(round(per_machine * machines))))
        return cls(points)

    @classmethod
    def diurnal(
        cls,
        duration_ms: float,
        machines: int = 8,
        min_per_machine: int = 1,
        max_per_machine: int = 16,
        cycles: int = 2,
    ) -> "RampProfile":
        """Clients follow a day/night wave: ``cycles`` raised-cosine peaks.

        Each cycle starts and ends at the night floor
        (``min_per_machine``) and peaks mid-cycle at ``max_per_machine``
        — the classic diurnal traffic shape elastic fleets are sized
        against.  Drives the ``diurnal`` scenario (docs/SCENARIOS.md).
        """
        if cycles < 1:
            raise ValueError(f"need at least one diurnal cycle, got {cycles}")
        points: List[Tuple[float, int]] = []
        steps = cls.STEPS
        for step in range(steps + 1):
            t = duration_ms * step / steps
            phase = (t / duration_ms) * cycles * 2.0 * math.pi
            bump = 0.5 * (1.0 - math.cos(phase))
            per_machine = min_per_machine + (max_per_machine - min_per_machine) * bump
            points.append((t, int(round(per_machine * machines))))
        return cls(points)

    def target_at(self, now_ms: float) -> int:
        """Target total client count at ``now_ms`` (step-hold)."""
        current = self.points[0][1] if self.points else 0
        for t, n in self.points:
            if t <= now_ms:
                current = n
            else:
                break
        return current

    def peak(self) -> int:
        """Maximum target over the profile."""
        return max(n for _t, n in self.points) if self.points else 0


class DynamicClients:
    """A client population tracking a :class:`RampProfile`.

    A controller process re-evaluates the target every ``TICK_MS`` and
    starts/retires client loops to match; each client is a closed loop
    identical to :class:`ClosedLoopClients`.
    """

    TICK_MS = 500.0

    def __init__(
        self,
        runtime: RuntimeBase,
        sampler: OpSampler,
        profile: RampProfile,
        think_ms: float = 50.0,
        rng: Optional[RngRegistry] = None,
        stop_at_ms: Optional[float] = None,
    ) -> None:
        self.runtime = runtime
        self.sampler = sampler
        self.profile = profile
        self.think_ms = think_ms
        self.rng = rng or RngRegistry(0)
        self.stop_at_ms = stop_at_ms
        self.active = 0
        self._spawned = 0
        self._retired: List[int] = []
        self.active_series: List[Tuple[float, int]] = []

    def start(self) -> None:
        """Launch the controller process."""
        self.runtime.sim.process(self._controller(), name="client-controller")

    def _controller(self) -> Generator:
        sim = self.runtime.sim
        while self.stop_at_ms is None or sim.now < self.stop_at_ms:
            target = self.profile.target_at(sim.now)
            while self.active < target:
                self._spawned += 1
                self.active += 1
                sim.process(
                    self._client_loop(self._spawned), name=f"dyn-client-{self._spawned}"
                )
            while self.active > target and self._spawned not in self._retired:
                # Retire the most recent client: its loop checks the
                # retirement list at each iteration boundary.
                self._retired.append(self._spawned)
                self._spawned -= 1
                self.active -= 1
            self.active_series.append((sim.now, self.active))
            yield self.TICK_MS

    def _client_loop(self, client_id: int) -> Generator:
        sim = self.runtime.sim
        handle = self.runtime.register_client(f"dyn-client-{client_id}")
        stream = self.rng.stream(f"dyn-client-{client_id}")
        while self.stop_at_ms is None or sim.now < self.stop_at_ms:
            if client_id in self._retired:
                self._retired.remove(client_id)
                return
            spec, tag = self.sampler(stream)
            yield handle.submit(spec, tag=tag)
            if self.think_ms > 0:
                yield stream.expovariate(1.0 / self.think_ms)
