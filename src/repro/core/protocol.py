"""The AEON execution protocol (§4, Algorithms 1 and 2).

Event lifecycle implemented by :class:`AeonRuntime`:

1. The client ships the event to the server hosting the target context
   (:meth:`~repro.core.runtime.RuntimeBase._ingress`: a stale location
   cache costs a forward hop).
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

from typing import Generator, List

from ..sim.cluster import Server
from .events import CallSpec, Event
from .runtime import ClientHandle, RuntimeBase

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
        target_server = yield from self._ingress(event, client)
        yield self._charge(target_server, costs.route_cpu_ms)

        # Lines 1-4: locate the dominator and send ACT to it.  submit
        # built the target's instance, so the target is registered.
        dominator = self.ownership.dominator(spec.target, registered=True)
        event.dom = dominator
        branch: List[str] = []
        if dominator != spec.target:
            dom_server = self.server_of(dominator)
            if dom_server.name != target_server.name:
                yield from self._hop(target_server, dom_server.name, costs.proto_msg_bytes)
            yield self._charge(dom_server, costs.lock_cpu_ms)
            yield self._reserve(event, branch, dominator)
            # The EXEC back to the target is enqueued in dominator order:
            # reserve the target's position before traveling (line 16-18).
            target_reserved = self._reserve(event, branch, spec.target)
            if dom_server.name != target_server.name:
                yield from self._hop(dom_server, target_server.name, costs.proto_msg_bytes)
        else:
            target_reserved = self._reserve(event, branch, spec.target)

        # activatePath at the target (lines 22-24; path is [target]).
        yield self._charge(target_server, costs.lock_cpu_ms)
        yield target_reserved
        event.started_ms = self.sim.now

        # Execute the body; the branch is closed even on error, so the
        # dominator is never wedged (RuntimeBase._close_branch).
        try:
            event.result = yield from self._drive_body(event, spec, branch)
        except Exception:
            yield None
            self._close_branch(event, branch, self.server_of(spec.target))
            raise
        yield None
        self._close_branch(event, branch, self.server_of(spec.target))
        if event.open_branches > 0:
            yield from self._await_quiescence(event)
        event.committed_ms = self.sim.now
        self._release_deferred(event)
        reply_from = self.server_of(spec.target)
        yield from self._hop(reply_from, client.name, costs.client_msg_bytes)

    # ------------------------------------------------------------------
    # Asynchronous calls (new branches)
    # ------------------------------------------------------------------
    def _spawn_async(
        self, event: Event, spec: CallSpec, caller_server: Server, caller_cid: str
    ) -> None:
        event.open_branches += 1
        child: List[str] = []
        # Reserve the continuation's lock positions *now*, while the
        # caller's locks are held: the continuation is ordered before
        # anything admitted by a later release.
        reserved = self._reserve_path(event, child, caller_cid, spec.target)

        def runner() -> Generator:
            landed = caller_server
            try:
                if reserved:
                    current = yield from self._claim_reserved(
                        event, reserved, caller_server
                    )
                else:
                    current = caller_server
                callee_server = self.server_of(spec.target)
                if current.name != callee_server.name:
                    yield from self._hop(
                        current, callee_server.name, self.costs.proto_msg_bytes
                    )
                yield self._charge(callee_server, self.costs.route_cpu_ms)
                yield from self._drive_body(event, spec, child)
                landed = self.server_of(spec.target)
            except Exception as exc:  # noqa: BLE001 - surfaced on the event
                if event.error is None:
                    event.error = exc
            yield None
            self._close_branch(event, child, landed)

        self.sim.process(runner(), name="event-async")
