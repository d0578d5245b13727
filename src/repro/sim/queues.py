"""Waitable queues and resources for simulated processes.

Two primitives:

* :class:`Store` — an unbounded FIFO of items; ``get()`` returns a signal
  that fires when an item is available, for processes that hand items
  to one another (the store ping-pong kernel benchmark is one).  No
  runtime layer keeps one: context and grain turns are taken on
  :mod:`repro.core.locking` queues, and the network runs delivery
  callbacks.
* :class:`Resource` — a counted resource with FIFO admission; server CPU
  cores are Resources, held by yielding a
  :class:`~repro.sim.kernel.CpuCharge`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Generator

from .kernel import CpuCharge, Signal, SimulationError, Simulator

__all__ = ["Store", "Resource"]


class Store:
    """Unbounded FIFO store of items with waitable ``get``.

    Puts never block.  Gets are served strictly in request order, which
    keeps per-channel message delivery FIFO — a property the AEON
    protocol relies on for its dominator ordering.
    """

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self.sim = sim
        self.name = name
        self.items: Deque[Any] = deque()
        self._getters: Deque[Signal] = deque()
        # Precomputed so the hot get() path never formats a name.
        self._get_name = f"get:{name}"

    def put(self, item: Any) -> None:
        """Append ``item``; wakes the oldest waiting getter, if any."""
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
        else:
            self.items.append(item)

    def get(self) -> Signal:
        """Return a signal yielding the next item (FIFO).

        When an item is already available the signal comes back
        pre-triggered — the process trampoline consumes it without a
        scheduler hop.
        """
        signal = Signal(self.sim, self._get_name)
        if self.items:
            signal.succeed(self.items.popleft())
        else:
            self._getters.append(signal)
        return signal

    def __len__(self) -> int:
        return len(self.items)

    @property
    def waiting_getters(self) -> int:
        """Number of get() calls currently blocked."""
        return len(self._getters)


class Resource:
    """A counted resource with FIFO admission (e.g. CPU cores).

    A process holds one unit for a stretch of virtual time by yielding
    ``CpuCharge(resource, ms)``; a hold around other waits takes a
    grant signal::

        grant = resource.request()
        yield grant
        try:
            yield sim.timeout(service_time)
        finally:
            resource.release(grant)
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = "") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        # Grant signals (request) and bare callbacks (enqueue_waiter)
        # share one FIFO; release_unit dispatches on the entry type.
        self._waiters: Deque[Any] = deque()
        # Accumulated busy core-milliseconds, for utilization accounting.
        self._busy_ms = 0.0
        self._last_change = 0.0
        # Precomputed so the hot request() path never formats a name.
        self._grant_name = f"grant:{name}"

    def request(self) -> Signal:
        """Return a signal that fires once a unit is granted.

        The grant's value is ``None``: the signal itself is the token
        :meth:`release` takes (a grant carrying itself would be a cycle
        only the paused collector could free).
        """
        grant = Signal(self.sim, self._grant_name)
        if self.in_use < self.capacity:
            self._account()
            self.in_use += 1
            grant.succeed(None)
        else:
            self._waiters.append(grant)
        return grant

    def acquire_now(self) -> bool:
        """Take a unit synchronously if one is free (no grant signal).

        The kernel's CpuCharge handling pairs this with
        :meth:`release_unit`.  Returns False under contention.
        """
        if self.in_use < self.capacity:
            now = self.sim.now
            self._busy_ms += self.in_use * (now - self._last_change)
            self._last_change = now
            self.in_use += 1
            return True
        return False

    def enqueue_waiter(self, callback: Callable[[Any], None]) -> None:
        """Queue ``callback`` to run (via ``call_soon``) when a unit frees.

        The signal-free counterpart of :meth:`request` used by the
        kernel's CpuCharge handling: the release schedules the callback
        at exactly the point the grant signal's completion would have.
        It is called with one argument, ``None`` (a queued callback
        takes exactly one), which it ignores.
        """
        self._waiters.append(callback)

    def release_unit(self) -> None:
        """Release one unit (the single release implementation)."""
        now = self.sim.now
        self._busy_ms += self.in_use * (now - self._last_change)
        self._last_change = now
        waiters = self._waiters
        if waiters:
            waiter = waiters.popleft()
            if callable(waiter):
                # Open-coded sim.call_soon(waiter, None): one per
                # contended hold.
                self.sim._immediate.append((waiter, None))
            else:
                waiter.succeed(None)
        else:
            self.in_use -= 1
            if self.in_use < 0:
                raise SimulationError(f"resource {self.name!r} over-released")

    def release(self, grant: Signal) -> None:
        """Release a previously granted unit."""
        if not grant.triggered:
            raise SimulationError("releasing a grant that was never acquired")
        self.release_unit()

    def use(self, service_ms: float) -> Generator:
        """Generator helper: ``yield from resource.use(ms)`` holds one unit."""
        yield CpuCharge(self, float(service_ms))

    def _account(self) -> None:
        now = self.sim.now
        self._busy_ms += self.in_use * (now - self._last_change)
        self._last_change = now

    def busy_core_ms(self) -> float:
        """Total accumulated busy core-milliseconds since t=0."""
        self._account()
        return self._busy_ms

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a unit."""
        return len(self._waiters)
