"""Waitable queues and resources for simulated processes.

Three primitives cover everything the runtimes need:

* :class:`Store` — an unbounded FIFO of items; ``get()`` returns a signal
  that fires when an item is available.  Context mailboxes, event queues
  and grain mailboxes are all Stores.
* :class:`Resource` — a counted resource with FIFO admission; server CPU
  cores are Resources.
* :class:`Notifier` — a broadcast condition variable; the locking layer
  uses it to re-evaluate admission predicates when lock state changes.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Generator, List, Optional

from .kernel import Signal, SimulationError, Simulator

__all__ = ["Store", "Resource", "Notifier"]


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

    Usage from a process generator::

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
        # Grant signals (request/use) and bare callbacks (enqueue_waiter)
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

        Callers that hold the unit across a plain timer yield pair this
        with :meth:`release_unit` — the open-coded equivalent of
        :meth:`use` for hot paths (the kernel's CpuCharge handling).
        Returns False under contention.
        """
        if self.in_use < self.capacity:
            now = self.sim.now
            self._busy_ms += self.in_use * (now - self._last_change)
            self._last_change = now
            self.in_use += 1
            return True
        return False

    def enqueue_waiter(self, callback: Callable[[], None]) -> None:
        """Queue ``callback`` to run (via ``call_soon``) when a unit frees.

        The signal-free counterpart of :meth:`request` used by the
        kernel's CpuCharge handling: the release schedules the callback
        at exactly the point the grant signal's completion would have.
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
                self.sim.call_soon(waiter)
            else:
                waiter.succeed(None)
        else:
            self.in_use -= 1
            if self.in_use < 0:
                raise SimulationError(f"resource {self.name!r} over-released")

    def grant_hop_needed(self) -> bool:
        """After :meth:`acquire_now`: whether a ``yield None`` hop is due.

        When the simulator is not idle at the current timestamp the
        historical grant signal would have queued one resume behind the
        pending callbacks; the caller must replicate that with a bare
        cooperative hop to keep the deterministic order.  When idle, the
        elided hop is accounted as one scheduler step (max_steps
        parity).  This runs inside a generator frame, so it must not
        raise the budget error itself (Process._step would convert it
        into a process failure); an overrun is detected at the next
        dispatch-loop boundary instead.
        """
        sim = self.sim
        if not sim.idle_at_now():
            return True
        if sim._max_steps is not None:
            sim._step_count += 1
        return False

    def release(self, grant: Signal) -> None:
        """Release a previously granted unit."""
        if not grant.triggered:
            raise SimulationError("releasing a grant that was never acquired")
        self.release_unit()

    def use(self, service_ms: float) -> Generator:
        """Generator helper: acquire, hold for ``service_ms``, release.

        Uncontended fast path: when a unit is free *and* the simulator is
        idle at the current timestamp, the grant is taken synchronously
        (no grant signal, no scheduler hop) and the hold degenerates to a
        single timeout.  The idle check keeps the event order identical
        to the slow path: with other same-time callbacks pending, the
        grant yield must queue behind them, so we fall through.
        """
        sim = self.sim
        service_ms = float(service_ms)
        if self.acquire_now():
            if self.grant_hop_needed():
                # Not idle at this timestamp: the triggered grant would
                # have queued one resume behind the pending callbacks —
                # a bare cooperative hop is the identical schedule.
                yield None
        else:
            grant = Signal(sim, self._grant_name)
            self._waiters.append(grant)
            yield grant
        try:
            yield service_ms
        finally:
            self.release_unit()

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


class Notifier:
    """Broadcast condition variable.

    ``wait()`` returns a signal completed by the next ``notify_all()``.
    ``wait_for(predicate)`` spawns a helper loop that re-checks the
    predicate after every notification and completes once it holds.
    """

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._waiters: List[Signal] = []

    def wait(self) -> Signal:
        """Signal completed by the next :meth:`notify_all`."""
        signal = self.sim.signal(name=f"wait:{self.name}")
        self._waiters.append(signal)
        return signal

    def notify_all(self) -> None:
        """Wake every currently waiting signal."""
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            # A waiter may have been completed elsewhere (e.g. a
            # wait_for that resolved out of band); skip, don't re-fire.
            if not waiter.triggered:
                waiter.succeed(None)

    def wait_for(self, predicate: Callable[[], bool]) -> Signal:
        """Signal that completes once ``predicate()`` is true.

        The predicate is evaluated immediately and then after every
        notification.  When the wait resolves (including a ``done``
        completed out of band), the helper's pending ``wait()`` signal
        is pruned from the waiter list — otherwise abandoned waiters
        accumulate until the next ``notify_all``, which under long
        elasticity runs may never come (an unbounded leak).
        """
        done = self.sim.signal(name=f"wait_for:{self.name}")
        pending: List[Optional[Signal]] = [None]

        def prune() -> None:
            stale = pending[0]
            pending[0] = None
            if stale is not None and not stale.triggered:
                try:
                    self._waiters.remove(stale)
                except ValueError:
                    pass

        def check(_signal: Optional[Signal] = None) -> None:
            pending[0] = None
            if done.triggered:
                return
            if predicate():
                done.succeed(None)
            else:
                waiter = self.wait()
                pending[0] = waiter
                waiter.add_callback(check)

        done.add_callback(lambda _s: prune())
        check()
        return done
