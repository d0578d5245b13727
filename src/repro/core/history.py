"""Execution recording and the strict-serializability checker.

Runtimes (when created with ``record_history=True``) record, for every
committed event, the versions it read and wrote per context.  The checker
then builds the conflict precedence graph:

* write→write / write→read / read→write orderings derived from context
  version counters,

and verifies

1. **Serializability** — the conflict graph is acyclic;
2. **Strictness (real-time order)** — no conflict edge points from an
   event to one that *committed before the first started* (a successor in
   the serial order that finished before its predecessor began would
   contradict the temporal ordering the paper guarantees).

The second check is the standard sound approximation for locking
protocols: any strict-serializability violation produced by mis-ordered
conflicting events shows up as such a backward edge.

Crash recovery rolls a context back to a durable image, and the versions
past it are then written again.  Runtimes record each rollback too; the
checker replays commits and rollbacks in time order, and a rollback
starts a new *incarnation* of the context that keeps the writes and
reads at or below the restored version.  The committed writes it
discarded are **lost updates**, a violation class of its own that
:meth:`HistoryRecorder.check` counts rather than raises.  A version
written by two live committed events is a hard violation.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

__all__ = ["CommittedEvent", "HistoryRecorder", "SerializabilityViolation"]


class SerializabilityViolation(AssertionError):
    """Raised by :meth:`HistoryRecorder.check` on a detected violation."""


@dataclass(frozen=True)
class CommittedEvent:
    """An immutable record of one committed event."""

    eid: int
    tag: str
    submitted_ms: float
    committed_ms: float
    reads: Dict[str, int]
    writes: Dict[str, int]


class HistoryRecorder:
    """Accumulates committed events and checks strict serializability."""

    def __init__(self) -> None:
        self.events: List[CommittedEvent] = []
        #: ``(time, cid, version restored)`` per rollback, in the order
        #: they happened.
        self.rollbacks: List[Tuple[float, str, int]] = []

    def commit(
        self,
        eid: int,
        tag: str,
        submitted_ms: float,
        committed_ms: float,
        reads: Dict[str, int],
        writes: Dict[str, int],
    ) -> None:
        """Record one committed event (called by runtimes)."""
        self.events.append(
            CommittedEvent(eid, tag, submitted_ms, committed_ms, dict(reads), dict(writes))
        )

    def rollback(self, cid: str, version: int, at_ms: float) -> None:
        """Record that ``cid`` went back to ``version`` at ``at_ms``
        (called by runtimes at their one rollback site)."""
        self.rollbacks.append((at_ms, cid, version))

    # ------------------------------------------------------------------
    # Conflict graph construction
    # ------------------------------------------------------------------
    def _replay(self) -> tuple:
        """Replay commits and rollbacks in time order.

        Commit time, not record order: an event is recorded once its
        reply reaches the client, and a rollback can fall in between.  A
        commit at a rollback's instant precedes it (the restore waited
        for the lock).  Returns the ``(cid, incarnation) -> version ->
        writer`` and ``-> readers`` maps, the number of committed writes
        rollbacks discarded, and each ``(cid, version)`` that a second
        live writer wrote.
        """
        writers: dict = defaultdict(dict)
        readers: dict = defaultdict(lambda: defaultdict(list))
        incarnation: Dict[str, int] = defaultdict(int)
        lost = 0
        duplicated = []
        pending = iter(self.rollbacks)
        rollback = next(pending, None)
        by_commit = sorted(self.events, key=lambda e: e.committed_ms)
        for event in by_commit + [None]:
            while rollback is not None and (
                event is None or rollback[0] < event.committed_ms
            ):
                _, cid, restored = rollback
                old = (cid, incarnation[cid])
                incarnation[cid] += 1
                new = (cid, incarnation[cid])
                discarded = writers[old]
                writers[new] = {v: e for v, e in discarded.items() if v <= restored}
                lost += len(discarded) - len(writers[new])
                readers[new] = defaultdict(
                    list,
                    {v: list(r) for v, r in readers[old].items() if v <= restored},
                )
                rollback = next(pending, None)
            if event is None:
                break
            for cid, version in event.writes.items():
                live = writers[(cid, incarnation[cid])]
                if version in live:
                    duplicated.append((cid, version))
                live[version] = event.eid
            for cid, version in event.reads.items():
                readers[(cid, incarnation[cid])][version].append(event.eid)
        return writers, readers, lost, duplicated

    def conflict_edges(self) -> Set[Tuple[int, int]]:
        """Precedence edges (eid_a -> eid_b) implied by version conflicts.

        Per context incarnation: the writer of version v precedes the
        writer of any later version; a reader of version v follows its
        writer and precedes the writer of version v+1.
        """
        writers, readers, _lost, _duplicated = self._replay()
        return _edges(writers, readers)

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------
    def check(self) -> int:
        """Raise :class:`SerializabilityViolation` if the history is bad.

        Returns the lost-update count: committed writes a rollback
        discarded, whether or not their versions were written again.
        """
        writers, readers, lost, duplicated = self._replay()
        if duplicated:
            cid, version = duplicated[0]
            raise SerializabilityViolation(
                f"{len(duplicated)} version(s) written by two live committed "
                f"events, the first {cid!r} v{version}"
            )
        edges = _edges(writers, readers)
        cycle = _find_cycle(edges)
        if cycle is not None:
            raise SerializabilityViolation(
                f"conflict cycle among events: {cycle}"
            )
        started = {e.eid: e.submitted_ms for e in self.events}
        committed = {e.eid: e.committed_ms for e in self.events}
        for src, dst in edges:
            if src in committed and dst in started:
                if committed[dst] < started[src]:
                    raise SerializabilityViolation(
                        f"real-time order violated: event {src} precedes {dst} "
                        f"in the serial order but {dst} committed at "
                        f"{committed[dst]:.3f}ms before {src} started at "
                        f"{started[src]:.3f}ms"
                    )
        return lost

    def is_strictly_serializable(self) -> bool:
        """Boolean form of :meth:`check`."""
        try:
            self.check()
        except SerializabilityViolation:
            return False
        return True

    def serial_order(self) -> Optional[List[int]]:
        """A topological order of the conflict graph (None if cyclic)."""
        edges = self.conflict_edges()
        nodes = {e.eid for e in self.events}
        out: Dict[int, Set[int]] = defaultdict(set)
        indeg: Dict[int, int] = {n: 0 for n in nodes}
        for src, dst in edges:
            if dst not in out[src]:
                out[src].add(dst)
                indeg[dst] = indeg.get(dst, 0) + 1
        # Prefer commit-time order among available nodes (deterministic
        # and consistent with strictness when the history is valid).
        commit_of = {e.eid: e.committed_ms for e in self.events}
        heap = [(commit_of.get(n, 0.0), n) for n in nodes if indeg[n] == 0]
        heapq.heapify(heap)
        order: List[int] = []
        while heap:
            _, node = heapq.heappop(heap)
            order.append(node)
            for succ in sorted(out[node]):
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    heapq.heappush(heap, (commit_of.get(succ, 0.0), succ))
        if len(order) != len(nodes):
            return None
        return order


def _edges(writers: dict, readers: dict) -> Set[Tuple[int, int]]:
    """The conflict edges of :meth:`HistoryRecorder._replay`'s maps."""
    edges: Set[Tuple[int, int]] = set()
    for key, by_version in writers.items():
        ordered_versions = sorted(by_version)
        for earlier, later in zip(ordered_versions, ordered_versions[1:]):
            if by_version[earlier] != by_version[later]:
                edges.add((by_version[earlier], by_version[later]))
        for version, writer_eid in by_version.items():
            # Readers of version v-1 (the state before this write)
            # precede the writer; readers of v follow it.
            for reader_eid in readers[key].get(version - 1, ()):
                if reader_eid != writer_eid:
                    edges.add((reader_eid, writer_eid))
            for reader_eid in readers[key].get(version, ()):
                if reader_eid != writer_eid:
                    edges.add((writer_eid, reader_eid))
    return edges


def _find_cycle(edges: Set[Tuple[int, int]]) -> Optional[List[int]]:
    """Return one cycle in the directed graph, or None (iterative DFS)."""
    out: Dict[int, List[int]] = defaultdict(list)
    nodes: Set[int] = set()
    for src, dst in edges:
        out[src].append(dst)
        nodes.add(src)
        nodes.add(dst)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {n: WHITE for n in nodes}
    parent: Dict[int, int] = {}
    for start in nodes:
        if color[start] != WHITE:
            continue
        stack: List[Tuple[int, int]] = [(start, 0)]
        color[start] = GRAY
        while stack:
            node, idx = stack[-1]
            if idx < len(out[node]):
                stack[-1] = (node, idx + 1)
                succ = out[node][idx]
                if color[succ] == GRAY:
                    cycle = [succ, node]
                    walker = node
                    while walker != succ and walker in parent:
                        walker = parent[walker]
                        cycle.append(walker)
                    cycle.reverse()
                    return cycle
                if color[succ] == WHITE:
                    color[succ] = GRAY
                    parent[succ] = node
                    stack.append((succ, 0))
            else:
                color[node] = BLACK
                stack.pop()
    return None
