"""Per-context lock state: Algorithm 1's queues and activated set.

Every context carries (Algorithm 1):

* ``toActivateQueue`` — FIFO of events waiting to lock the context;
* ``activatedSet`` — events currently holding the context (several
  read-only events, or exactly one exclusive event).

:class:`ContextLock` implements the admission rule of Algorithm 2's
``dispatchEvent`` task: the head of the queue is admitted when it is
read-only and no exclusive holder is active, or when the activated set is
empty.  Strict FIFO admission (only the head may enter) is what provides
the paper's starvation freedom — a stream of read-only events cannot
overtake a queued exclusive event forever.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..sim.kernel import Signal, Simulator
from .events import AccessMode, Event

__all__ = ["ContextLock"]


class ContextLock:
    """Read/write lock with FIFO admission for one context.

    One lock exists per materialised context and is almost always held
    by nobody, so the idle state is kept small: slots instead of an
    instance dict, and the queue and its eid index are allocated when
    the first event has to wait.
    """

    __slots__ = (
        "sim",
        "cid",
        "activated",
        "total_acquisitions",
        "_queue",
        "_pending",
        "_exclusive_active",
    )

    def __init__(self, sim: Simulator, cid: str) -> None:
        self.sim = sim
        self.cid = cid
        # eid -> mode of events currently holding the context.
        self.activated: Dict[int, AccessMode] = {}
        # The toActivateQueue and its eid -> grant index, both ``None``
        # until first contention; they hold the same events thereafter.
        self._queue: Optional[Deque[Tuple[Event, Signal]]] = None
        self._pending: Optional[Dict[int, Signal]] = None
        # Counters exposed to tests and the elasticity manager.
        self.total_acquisitions = 0
        # Number of exclusive holders in ``activated`` (0 or 1),
        # maintained incrementally so _pump never scans the set.
        self._exclusive_active = 0

    # ------------------------------------------------------------------
    # Acquisition
    # ------------------------------------------------------------------
    def request(self, event: Event) -> Tuple[Signal, bool]:
        """Enqueue ``event`` for activation (reserve a FIFO position).

        Returns ``(grant, owned)``: ``grant`` fires when the event is
        admitted; ``owned`` is True only for the call that created the
        hold/reservation — exactly one branch of an event owns (and
        therefore releases) each lock.  Re-requesting while held or
        queued returns the existing grant with ``owned=False``, so
        re-entrant calls within one event never self-deadlock.

        Synchronous grants (direct admission, re-entrant request) are
        the simulator's shared ``ready`` signal: waiters only ever read
        ``triggered``/``value``/``exc`` from it.
        """
        eid = event.eid
        if eid in self.activated:
            return self.sim.ready, False
        queue = self._queue
        if queue:
            pending = self._pending.get(eid)
            if pending is not None:
                return pending, False
        mode = event.mode
        if not queue and (
            not self._exclusive_active
            if mode is AccessMode.RO
            else not self.activated
        ):
            # Uncontended: admit directly, skipping the queue round trip
            # (same outcome as append + _pump + _admit).
            self.activated[eid] = mode
            if mode is not AccessMode.RO:
                self._exclusive_active += 1
            self.total_acquisitions += 1
            return self.sim.ready, True
        if queue is None:
            queue = self._queue = deque()
            self._pending = {}
        # Nothing to pump: the head (this event, or an older one) is
        # blocked by the holders, which only a release changes.
        grant = Signal(self.sim, "lock")
        self._pending[eid] = grant
        queue.append((event, grant))
        return grant, True

    def release(self, event: Event) -> None:
        """Release ``event``'s hold (or cancel its reservation).

        Admits successors.  Double release is tolerated: branch cleanup
        paths may overlap on error.
        """
        eid = event.eid
        if eid in self.activated:
            mode = self.activated.pop(eid)
            if mode is AccessMode.EX:
                self._exclusive_active -= 1
            if self._queue:
                self._pump()
            return
        if self._queue and eid in self._pending:
            # The event reserved a position but never claimed it
            # (error/abort path): cancel the reservation.
            del self._pending[eid]
            self._queue = deque(
                (queued, grant)
                for queued, grant in self._queue
                if queued.eid != eid
            )
            self._pump()

    def _pump(self) -> None:
        queue = self._queue
        while queue:
            head_event, _grant = queue[0]
            if head_event.mode is AccessMode.RO:
                if self._exclusive_active:
                    return
            elif self.activated:
                return
            self._admit()

    def _admit(self) -> None:
        event, grant = self._queue.popleft()
        del self._pending[event.eid]
        mode = event.mode
        self.activated[event.eid] = mode
        if mode is AccessMode.EX:
            self._exclusive_active += 1
        self.total_acquisitions += 1
        grant.succeed(None)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def holders(self) -> List[int]:
        """Event ids currently holding the context."""
        return list(self.activated)

    def is_held(self) -> bool:
        """Whether any event currently holds the context."""
        return bool(self.activated)

    @property
    def queue_length(self) -> int:
        """Number of events waiting in the toActivateQueue."""
        return len(self._queue or ())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ContextLock {self.cid} held_by={sorted(self.activated)} "
            f"queue={self.queue_length}>"
        )
