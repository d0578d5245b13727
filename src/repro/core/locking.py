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

Live locks only
---------------
A lock exists only while some event holds it or has a reservation on
it.  The runtime's ``locks`` table maps a cid to its live lock, and
:func:`acquire` is the one way in: it requests on the live lock, or,
when there is none, constructs the lock with the event already admitted
— one call, because the constructor admits the event and enters the
lock in the table.  The release that leaves a lock with no holder and an
empty queue (a holder's release or a cancelled reservation) takes it out
of the table again.  Why nothing can interleave:

* An idle lock answers ``request``, ``release``, ``holders``,
  ``is_held`` and ``queue_length`` exactly as a fresh one does: a
  request is admitted at once and owns the hold, a release is a no-op,
  and nobody holds or waits.  So dropping it and constructing another
  on the next acquisition is invisible.
* Creating a lock touches no simulator state: it takes no sequence
  number and puts nothing on a queue.
* Every lock reference that outlives a call (a scheduled release, a
  batch of releases, a migration or snapshot local) is taken while that
  lock is held or reserved, so the lock cannot leave the table before
  the reference is used.  (A branch that closes after its event
  finished, which released everything the event held, finds no lock
  and schedules nothing, or finds a later event's lock, on which its
  release is the no-op of the next point.)
* A stale double release is a no-op, as it always was: the event is
  neither a holder nor queued, so ``release`` returns before it looks
  at the table, and the removal is guarded by identity, so it can never
  take out the lock that replaced this one.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..sim.kernel import Signal, Simulator
from .events import AccessMode, Event

__all__ = ["ContextLock", "acquire"]


class ContextLock:
    """Read/write lock with FIFO admission for one context.

    Constructed by :func:`acquire` with its first event already admitted,
    and entered in ``table``; the release that leaves it idle takes it
    out again.  Slots instead of an instance dict, and the queue and its
    eid index are allocated when the first event has to wait.
    """

    __slots__ = (
        "sim",
        "table",
        "cid",
        "activated",
        "_queue",
        "_pending",
        "_exclusive_active",
    )

    def __init__(
        self, sim: Simulator, table: Dict[str, "ContextLock"], cid: str, event: Event
    ) -> None:
        self.sim = sim
        self.table = table
        self.cid = cid
        mode = event.mode
        # eid -> mode of events currently holding the context.
        self.activated: Dict[int, AccessMode] = {event.eid: mode}
        # The toActivateQueue and its eid -> grant index, both ``None``
        # until first contention; they hold the same events thereafter.
        self._queue: Optional[Deque[Tuple[Event, Signal]]] = None
        self._pending: Optional[Dict[int, Signal]] = None
        # Number of exclusive holders in ``activated`` (0 or 1),
        # maintained incrementally so _pump never scans the set.
        self._exclusive_active = 0 if mode is AccessMode.RO else 1
        table[cid] = self

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

        Admits successors; the release that leaves the lock idle takes
        it out of its table.  Double release is tolerated: branch
        cleanup paths may overlap on error.
        """
        eid = event.eid
        activated = self.activated
        if eid in activated:
            if activated.pop(eid) is AccessMode.EX:
                self._exclusive_active -= 1
        elif self._queue and eid in self._pending:
            # The event reserved a position but never claimed it
            # (error/abort path): cancel the reservation.
            del self._pending[eid]
            self._queue = deque(
                (queued, grant)
                for queued, grant in self._queue
                if queued.eid != eid
            )
        else:
            return
        if self._queue:
            self._pump()
        elif not activated and self.table.get(self.cid) is self:
            del self.table[self.cid]

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


def acquire(
    sim: Simulator, table: Dict[str, ContextLock], cid: str, event: Event
) -> Tuple[ContextLock, Signal, bool]:
    """Reserve ``event``'s FIFO position on ``cid``'s lock in ``table``.

    Returns ``(lock, grant, owned)``: the live lock and what
    :meth:`ContextLock.request` returns.  With no live lock, the lock is
    constructed holding ``event`` — the grant is the simulator's shared
    ``ready`` signal and the event owns the hold.
    """
    lock = table.get(cid)
    if lock is None:
        return ContextLock(sim, table, cid, event), sim.ready, True
    grant, owned = lock.request(event)
    return lock, grant, owned
