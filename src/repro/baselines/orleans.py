"""Orleans runtime model (Bykov et al., SoCC'11), as characterized in §2.1.

Execution discipline reproduced:

* contexts are **grains**: single-threaded, non-reentrant actors.  A
  grain processes one request at a time; a request holds the grain busy
  until its method (including awaited nested calls) returns;
* **no cross-grain atomicity**: a nested call takes only the *callee*
  grain's turn lock for the duration of that call — there is no
  two-phase locking, no dominator, no transactional guarantee (the
  open-source Orleans the paper measured dropped transactions);
* **deadlock on call cycles**: a synchronous call back into a grain the
  current request already occupies can never be served (non-reentrant
  single-threading).  The model detects this and raises
  :class:`OrleansDeadlockError` — the hazard §2.1 calls out;
* **no placement affinity**: grains are hash-placed across servers (the
  paper's §6.1.1 point 2: Orleans lacks AEON's co-location rules), and
  all CPU work pays the managed-runtime overhead factor (point 1);
* asynchronous calls model ``Task``-based fan-out: the request joins
  all of them before completing (``Task.WhenAll``).

The paper's two Orleans variants are *application wirings*, not runtime
changes: "Orleans" routes item access through the Room/tree grain for
mutual exclusion (strictly serializable, slow), "Orleans*" lets callers
hit shared grains directly (fast, non-serializable).
"""

from __future__ import annotations

from typing import Generator, Optional

from ..core.errors import AeonError
from ..core.events import CallSpec, Event
from ..core.runtime import Branch, ClientHandle, RuntimeBase
from ..sim.cluster import Server
from ..sim.network import DeliveryError

__all__ = ["OrleansRuntime", "OrleansDeadlockError"]


class OrleansDeadlockError(AeonError):
    """A synchronous call cycle re-entered a busy, non-reentrant grain."""


class OrleansRuntime(RuntimeBase):
    """Single-threaded grains with per-call turn locks."""

    system_name = "orleans"
    supports_async = True
    supports_readonly = False
    enforce_ownership = False  # grains are unordered (§2.1 table)

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)
        self.cpu_factor = self.costs.orleans_overhead
        self._placement_counter = 0

    # ------------------------------------------------------------------
    # Placement: hash/round-robin, no co-location rules
    # ------------------------------------------------------------------
    def _default_server(self) -> Server:
        alive = sorted(self.cluster.alive_servers().values(), key=lambda s: s.name)
        if not alive:
            raise AeonError("no alive servers to place a grain on")
        self._placement_counter += 1
        return alive[self._placement_counter % len(alive)]

    # ------------------------------------------------------------------
    # Event lifecycle: one turn on the target grain
    # ------------------------------------------------------------------
    def _event_process(self, event: Event, client: ClientHandle) -> Generator:
        costs = self.costs
        spec = event.spec
        cached_name = client.locate(spec.target)
        try:
            yield self.network.delay_ms(
                client.name, cached_name, costs.client_msg_bytes
            )
        except DeliveryError:
            # Cached server unreachable: forget the entry so a retry
            # re-resolves (see ClientHandle), then surface the failure.
            client.forget(spec.target)
            raise
        grain_server = self.server_of(spec.target)
        if cached_name != grain_server.name:
            stale_server = self.cluster.servers.get(cached_name)
            if stale_server is not None:
                yield self._charge(stale_server, costs.net_cpu_ms)
                event.hops += 1
                yield self.network.delay_ms(
                    stale_server.name, grain_server.name, costs.client_msg_bytes
                )
            else:
                yield self.network.delay_ms(
                    cached_name, grain_server.name, costs.client_msg_bytes
                )
            client.learn(spec.target, grain_server.name)
        yield self._charge(grain_server, costs.route_cpu_ms)
        event.started_ms = self.sim.now
        branch = Branch(event)
        # Take the grain's turn (FIFO mailbox admission).
        grant = self._reserve(event, branch, spec.target)
        yield grant
        try:
            event.result = yield from self._drive_body(event, spec, branch)
            # Task.WhenAll: the request completes when its async fan-out
            # does; the grain stays busy meanwhile (non-reentrant).
            self._branch_closed(event)
            if event.open_branches > 0:
                yield from self._await_quiescence(event)
        finally:
            if event.open_branches > 0:
                self._branch_closed(event)
            self._release_branch_locks(event, branch, self.server_of(spec.target))
        event.committed_ms = self.sim.now
        reply_from = self.server_of(spec.target)
        yield self._charge(reply_from, costs.net_cpu_ms)
        event.hops += 1
        yield self.network.delay_ms(reply_from.name, client.name, costs.client_msg_bytes)

    # ------------------------------------------------------------------
    # Nested calls: per-call turn on the callee grain only
    # ------------------------------------------------------------------
    def _sync_call(
        self,
        event: Event,
        spec: CallSpec,
        branch: Branch,
        caller_server: Server,
        caller_cid: str,
    ) -> Generator:
        if spec.target == caller_cid or spec.target in (event.held or ()):
            raise OrleansDeadlockError(
                f"request {event.eid} synchronously re-entered busy grain "
                f"{spec.target!r} (non-reentrant call cycle)"
            )
        callee_server = self.server_of(spec.target)
        if callee_server.name != caller_server.name:
            yield self._charge(caller_server, self.costs.net_cpu_ms)
            event.hops += 1
            yield self.network.delay_ms(
                caller_server.name, callee_server.name, self.costs.proto_msg_bytes
            )
        call_branch = Branch(event)
        grant = self._reserve(event, call_branch, spec.target)
        yield self._charge(callee_server, self.costs.route_cpu_ms)
        yield grant
        # Not a ``finally``: ending the turn takes a scheduler hop, and a
        # generator that dies with its run must not yield on the way out.
        try:
            result = yield from self._drive_body(event, spec, call_branch)
        except Exception:
            yield from self._end_turn(event, call_branch, spec.target)
            raise
        yield from self._end_turn(event, call_branch, spec.target)
        landed = self.server_of(spec.target)
        if landed.name != caller_server.name:
            yield self._charge(landed, self.costs.net_cpu_ms)
            event.hops += 1
            yield self.network.delay_ms(
                landed.name, caller_server.name, self.costs.proto_msg_bytes
            )
        return result

    def _end_turn(self, event: Event, call_branch: Branch, cid: str) -> Generator:
        """Turn over: the callee grain frees as soon as the call returns
        (no two-phase locking — hence no atomicity)."""
        yield None
        self._release_branch_locks(event, call_branch, self.server_of(cid))

    def _spawn_async(
        self, event: Event, spec: CallSpec, caller_server: Server, caller_cid: str
    ) -> None:
        self._branch_opened(event)

        def runner() -> Generator:
            landed: Optional[Server] = caller_server
            try:
                yield from self._sync_call(event, spec, Branch(event), caller_server, caller_cid)
                landed = self.server_of(spec.target)
            except Exception as exc:  # noqa: BLE001 - surfaced on the event
                if event.error is None:
                    event.error = exc
            finally:
                _ = landed
                self._branch_closed(event)

        self.sim.process(runner(), name="event-task")
