"""EventWave runtime model (Chuang et al., SoCC'13), as characterized in §2.1.

Execution discipline reproduced:

* contexts form a strict **tree** (single ownership); attempts to create
  a second owner are rejected;
* **every** event is totally ordered at the single root context: the
  root sequencer is a serial resource on the root's server, charging
  ``eventwave_root_cpu_ms`` per event — the scalability bottleneck the
  paper measures (Fig. 5a/6a plateaus);
* after sequencing, the event is routed down the tree to its target
  (per-hop forwarding cost), executes with exclusive per-context locks
  acquired top-down, and releases everything at commit (no chain
  release, no read-only sharing, no asynchronous method calls — the
  three mechanisms the paper credits for AEON's advantage).

EventWave's coarse migration ("halting all executions during migration")
is not modelled: no figure migrates EventWave (fig8 migrates AEON only).
"""

from __future__ import annotations

from typing import Generator, List, Optional

from ..core.errors import AeonError
from ..core.events import CallSpec, Event
from ..core.runtime import Branch, ClientHandle, RuntimeBase
from ..sim.cluster import Server
from ..sim.kernel import Signal
from ..sim.queues import Resource

__all__ = ["EventWaveRuntime", "SingleOwnershipError"]


class SingleOwnershipError(AeonError):
    """EventWave contexts form a tree: a second owner is illegal."""


class EventWaveRuntime(RuntimeBase):
    """Tree of contexts with a total order imposed at the root."""

    system_name = "eventwave"
    supports_async = False
    supports_readonly = False

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)
        self._sequencer: Optional[Resource] = None
        self._ticket = 0
        # The tree root, recomputed only when contexts change (it is
        # consulted on every event).
        self._root_cache: Optional[str] = None

    # ------------------------------------------------------------------
    # Tree enforcement
    # ------------------------------------------------------------------
    def ownership_link(self, owner_cid: str, child_cid: str) -> None:
        existing = self.ownership.parents(child_cid)
        if existing and owner_cid not in existing:
            raise SingleOwnershipError(
                f"EventWave context {child_cid!r} already has an owner "
                f"({sorted(existing)[0]!r}); trees do not allow sharing"
            )
        super().ownership_link(owner_cid, child_cid)

    def create_context(self, *args: object, **kwargs: object):  # type: ignore[override]
        owners = kwargs.get("owners") or (args[1] if len(args) > 1 else ())
        if owners is not None and len(list(owners)) > 1:
            raise SingleOwnershipError("EventWave contexts accept a single owner")
        self._root_cache = None
        return super().create_context(*args, **kwargs)

    def root_context(self) -> str:
        """The unique tree root every event is sequenced at."""
        cached = self._root_cache
        if (
            cached is not None
            and cached in self.ownership
            and not self.ownership.parents(cached)
        ):
            return cached
        roots = [
            cid for cid in self.ownership.roots() if not self.ownership.is_virtual(cid)
        ]
        if len(roots) != 1:
            raise AeonError(
                f"EventWave requires exactly one root context, found {sorted(roots)}"
            )
        self._root_cache = roots[0]
        return roots[0]

    # ------------------------------------------------------------------
    # Event lifecycle
    # ------------------------------------------------------------------
    def _event_process(self, event: Event, client: ClientHandle) -> Generator:
        costs = self.costs
        spec = event.spec
        root = self.root_context()
        root_server = self.server_of(root)
        # Clients always submit through the root (it orders everything).
        yield self.network.delay_ms(client.name, root_server.name, costs.client_msg_bytes)
        # Serial sequencing at the root: the global bottleneck.
        sequencer = self._root_sequencer()
        grant = sequencer.request()
        yield grant
        branch = Branch(event)
        try:
            yield self._charge(root_server, costs.eventwave_root_cpu_ms)
            self._ticket += 1
            event.started_ms = self.sim.now
            event.dom = root
            # Reserve the target's execution-queue position while serial:
            # per-context order equals ticket order.
            target_reserved = self._reserve(event, branch, spec.target)
        finally:
            sequencer.release(grant)

        # Route down the tree, paying a forwarding cost per context hop.
        path = self.ownership.find_path(root, spec.target)
        current = root_server
        for cid in path[1:]:
            nxt = self.server_of(cid)
            if nxt.name != current.name:
                yield self._charge(current, costs.net_cpu_ms)
                event.hops += 1
                yield self.network.delay_ms(current.name, nxt.name, costs.proto_msg_bytes)
                current = nxt
            yield self._charge(nxt, costs.eventwave_forward_cpu_ms)

        target_server = self.server_of(spec.target)
        if current.name != target_server.name:
            yield self._charge(current, costs.net_cpu_ms)
            event.hops += 1
            yield self.network.delay_ms(
                current.name, target_server.name, costs.proto_msg_bytes
            )
        yield self._charge(target_server, costs.lock_cpu_ms)
        yield target_reserved
        # Not a ``finally``: the release takes a scheduler hop, and a
        # generator that dies with its run must not yield on the way out.
        try:
            event.result = yield from self._drive_body(event, spec, branch)
        except Exception:
            yield from self._release_at_commit(event, branch)
            raise
        yield from self._release_at_commit(event, branch)
        event.committed_ms = self.sim.now
        reply_from = self.server_of(spec.target)
        yield self._charge(reply_from, costs.net_cpu_ms)
        event.hops += 1
        yield self.network.delay_ms(reply_from.name, client.name, costs.client_msg_bytes)

    def _release_at_commit(self, event: Event, branch: Branch) -> Generator:
        """Strict hold-till-commit: everything released at the end."""
        yield None
        self._release_branch_locks(event, branch, self.server_of(event.spec.target))
        self._branch_closed(event)

    def _root_sequencer(self) -> Resource:
        if self._sequencer is None:
            self._sequencer = Resource(self.sim, capacity=1, name="eventwave-root-seq")
        return self._sequencer

    def _spawn_async(
        self, event: Event, spec: CallSpec, caller_server: Server, caller_cid: str
    ) -> None:  # pragma: no cover - supports_async is False
        raise AeonError("EventWave has no asynchronous method calls")
