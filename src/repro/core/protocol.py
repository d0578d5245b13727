"""The AEON execution protocol (§4, Algorithms 1 and 2).

Event lifecycle implemented by :class:`AeonRuntime`:

1. The client ships the event to the server hosting the target context
   (stale location caches cost a forward hop).
2. The target's server computes the target's **dominator** in the
   ownership network and sends an ACT message to it; the event queues in
   the dominator's ``toActivateQueue`` and is admitted FIFO — exclusively
   for update events, shared for read-only events (Algorithm 2,
   ``dispatchEvent``).
3. The dominator EXECs the event back to the target; the EXEC is
   enqueued in the target's ``toExecuteQueue`` *in dominator order*
   (modeled as a reserve-then-claim lock acquisition: FIFO positions on
   every context of a call path are reserved synchronously while the
   caller's locks are still held, then hops/queueing are paid).
4. Nested synchronous calls travel down the ownership DAG, activating
   every context along the path from the calling context to the callee
   top-down (``scheduleNext`` + ``activatePath``).
5. Asynchronous calls spawn new *branches* whose lock positions are
   likewise reserved at spawn time; the event completes when all
   branches are quiescent; sub-events dispatched inside the event run
   after it.
6. Locks are released in reverse acquisition order.  With *chain
   release* (the default, matching §6.1.2's "releases the Warehouse
   context"), each branch releases its locks as soon as its body and
   synchronous work are done — safe because every continuation already
   reserved its queue positions, so successors admitted by the release
   order strictly behind it everywhere.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Tuple

from ..sim.cluster import Server
from ..sim.kernel import Signal
from ..sim.network import DeliveryError
from .events import CallSpec, Event
from .runtime import Branch, ClientHandle, RuntimeBase

__all__ = ["AeonRuntime"]


class AeonRuntime(RuntimeBase):
    """The AEON runtime: dominator sequencing + DAG path locking."""

    system_name = "aeon"

    # ------------------------------------------------------------------
    # Event lifecycle (Algorithm 2)
    # ------------------------------------------------------------------
    def _event_process(self, event: Event, client: ClientHandle) -> Generator:
        spec = event.spec
        costs = self.costs
        # Client -> (cached) server hop; stale caches pay a forward hop.
        cached_name = client.locate(spec.target)
        try:
            yield self.network.delay_ms(
                client.name, cached_name, costs.client_msg_bytes
            )
        except DeliveryError:
            # The cached server did not answer (crash/partition): drop
            # the entry so a retry re-resolves instead of re-failing on
            # the same dead endpoint, then surface the failure.
            client.forget(spec.target)
            raise
        target_server = self.server_of(spec.target)
        if cached_name != target_server.name:
            # Stale client cache: the wrong server forwards the event.
            stale_server = self.cluster.servers.get(cached_name)
            if stale_server is not None:
                yield self._charge(stale_server, costs.net_cpu_ms)
                event.hops += 1
                yield self.network.delay_ms(
                    stale_server.name, target_server.name, costs.client_msg_bytes
                )
            else:
                yield self.network.delay_ms(
                    cached_name, target_server.name, costs.client_msg_bytes
                )
            client.learn(spec.target, target_server.name)
        yield self._charge(target_server, costs.route_cpu_ms)

        # Lines 1-4: locate the dominator and send ACT to it.
        dominator = self.ownership.dominator(spec.target)
        event.dom = dominator
        branch = Branch(event)
        if dominator != spec.target:
            dom_server = self.server_of(dominator)
            if dom_server.name != target_server.name:
                yield self._charge(target_server, costs.net_cpu_ms)
                event.hops += 1
                yield self.network.delay_ms(
                    target_server.name, dom_server.name, costs.proto_msg_bytes
                )
            yield self._charge(dom_server, costs.lock_cpu_ms)
            yield self._reserve(event, branch, dominator)
            # The EXEC back to the target is enqueued in dominator order:
            # reserve the target's position before traveling (line 16-18).
            target_reserved = self._reserve(event, branch, spec.target)
            if dom_server.name != target_server.name:
                yield self._charge(dom_server, costs.net_cpu_ms)
                event.hops += 1
                yield self.network.delay_ms(
                    dom_server.name, target_server.name, costs.proto_msg_bytes
                )
        else:
            target_reserved = self._reserve(event, branch, spec.target)

        # activatePath at the target (lines 22-24; path is [target]).
        yield self._charge(target_server, costs.lock_cpu_ms)
        yield target_reserved
        event.started_ms = self.sim.now

        # Execute the body; the branch is closed even on error so the
        # dominator is never wedged.  Not a ``finally``: closing takes a
        # scheduler hop, and a generator that dies with its run (see
        # Simulator.close) must not yield on the way out.
        try:
            event.result = yield from self._drive_body(event, spec, branch)
        except Exception:
            yield from self._close_branch(event, branch, self.server_of(spec.target))
            raise
        yield from self._close_branch(event, branch, self.server_of(spec.target))
        if event.open_branches > 0:
            yield from self._await_quiescence(event)
        event.committed_ms = self.sim.now
        self._release_deferred(event)
        # Reply to the client.
        reply_from = self.server_of(spec.target)
        yield self._charge(reply_from, costs.net_cpu_ms)
        event.hops += 1
        yield self.network.delay_ms(reply_from.name, client.name, costs.client_msg_bytes)

    # ------------------------------------------------------------------
    # Asynchronous calls (new branches)
    # ------------------------------------------------------------------
    def _spawn_async(
        self, event: Event, spec: CallSpec, caller_server: Server, caller_cid: str
    ) -> None:
        self._branch_opened(event)
        child = Branch(event)
        # Reserve the continuation's lock positions *now*, while the
        # caller's locks are held: the continuation is ordered before
        # anything admitted by a later release.
        reserved = self._reserve_path(event, child, caller_cid, spec.target)

        def runner() -> Generator:
            landed: Optional[Server] = caller_server
            try:
                if reserved:
                    current = yield from self._claim_reserved(
                        event, reserved, caller_server
                    )
                else:
                    current = caller_server
                callee_server = self.server_of(spec.target)
                if current.name != callee_server.name:
                    yield self._charge(current, self.costs.net_cpu_ms)
                    event.hops += 1
                    yield self.network.delay_ms(
                        current.name, callee_server.name, self.costs.proto_msg_bytes
                    )
                yield self._charge(callee_server, self.costs.route_cpu_ms)
                yield from self._drive_body(event, spec, child)
                landed = self.server_of(spec.target)
            except Exception as exc:  # noqa: BLE001 - surfaced on the event
                if event.error is None:
                    event.error = exc
            yield from self._close_branch(event, child, landed or caller_server)

        self.sim.process(runner(), name="event-async")

    # ------------------------------------------------------------------
    # Lock release
    # ------------------------------------------------------------------
    def _close_branch(self, event: Event, branch: Branch, at_server: Server) -> Generator:
        """Close a branch: flush spawned continuations, release locks.

        The single scheduler hop (``yield None``) lets continuations
        spawned in the final body step take their first step before the
        release admits competitors (their positions are already
        reserved, this is belt-and-braces).
        """
        yield None
        if self.costs.early_release:
            self._release_branch_locks(event, branch, at_server)
        else:
            event.deferred_locks.extend(branch.locks)
            branch.locks = []
        self._branch_closed(event)
