"""Shared runtime machinery for every system in the repository.

:class:`RuntimeBase` owns what all three runtimes (AEON, EventWave,
Orleans) have in common:

* context creation/placement and the ownership network bookkeeping,
* client registration with cached (possibly stale) context→server maps,
* event submission, metrics and history recording,
* the *body driver* that executes a context method written as a plain
  function or a generator yielding :class:`~repro.core.events.CallSpec`,
  ``async_``/``dispatch`` markers, ``compute`` and ``sleep``.

Subclasses implement the protocol-specific pieces: how an event reaches
its target (:meth:`RuntimeBase._event_process`) and how asynchronous
calls are spawned (:meth:`RuntimeBase._spawn_async`); Orleans also
replaces the reserve-then-claim arbitration of a synchronous nested call
(:meth:`RuntimeBase._sync_call`).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Sequence, Set, Tuple, Type

from ..sim.cluster import Cluster, Server
from ..sim.kernel import CpuCharge, Process, Signal, Simulator
from ..sim.metrics import LatencyRecorder
from ..sim.network import Network
from .analysis import StaticAnalysis
from .context import ContextClass, ContextRef, is_readonly, method_cost
from .costs import CostModel, DEFAULT_COSTS
from .errors import (
    AeonError,
    OwnershipCycleError,
    OwnershipViolationError,
    ReadOnlyViolationError,
    RetryableError,
    UnknownContextError,
)
from .events import (
    AccessMode,
    AsyncCall,
    CallSpec,
    Compute,
    Event,
    Sleep,
    SubEvent,
)
from .history import HistoryRecorder
from .locking import ContextLock
from .ownership import FencingTable, OwnershipNetwork

__all__ = ["RuntimeBase", "ClientHandle", "Branch", "FAILED_TAG"]

#: Latency-recorder tag replacing the event's own tag when it completes
#: with an error; availability experiments use it to separate goodput
#: (successful completions) from failed/lost work.
FAILED_TAG = "!failed"


class Branch:
    """One execution strand of an event (the root body or an async call).

    Each branch keeps the ordered list of locks it acquired; with chain
    release enabled, a branch releases its locks as soon as its body and
    synchronous sub-calls are done and its asynchronous continuations are
    already in flight.
    """

    __slots__ = ("event", "locks")

    def __init__(self, event: Event) -> None:
        self.event = event
        self.locks: List[str] = []


class ClientHandle:
    """A client endpoint with a cached context→server mapping.

    The cache models the paper's §5.1: clients cache the most recent
    mapping and learn corrections lazily (a stale entry costs a forward
    hop, it never costs correctness).  Corrections arrive three ways:

    * ``learn`` — the right server answers and the client remembers it;
    * ``forget`` — the client itself observed a delivery failure and
      drops the entry (the next lookup re-resolves);
    * ``invalidate_server`` — a *push* invalidation: the failure
      detector declared the server dead (or the eManager decommissioned
      it), so every entry pointing there is dropped at once, shortening
      the outage tail instead of paying one failed event per entry.
    """

    def __init__(self, runtime: "RuntimeBase", name: str) -> None:
        self.runtime = runtime
        self.name = name
        self._cache: Dict[str, str] = {}
        #: Cache entries dropped by push invalidations (metrics).
        self.invalidated = 0

    def locate(self, cid: str) -> str:
        """Best-known server name for ``cid`` (cache, else authoritative).

        The cache is trusted as-is — a real client cannot peek at
        cluster ground truth.  Entries pointing at dead servers are
        removed by push invalidation / ``forget``; entries pointing at
        live-but-wrong servers cost the forward hop (§5.1).
        """
        cached = self._cache.get(cid)
        if cached is not None:
            return cached
        actual = self.runtime.placement[cid]
        self._cache[cid] = actual
        return actual

    def learn(self, cid: str, server_name: str) -> None:
        """Update the cached location of ``cid``."""
        self._cache[cid] = server_name

    def forget(self, cid: str) -> None:
        """Drop the cached location of ``cid`` (observed delivery failure)."""
        self._cache.pop(cid, None)

    def invalidate_server(self, server_name: str) -> int:
        """Drop every cached entry pointing at ``server_name``.

        Returns how many entries were dropped (push-invalidation
        accounting).
        """
        stale = [cid for cid, host in self._cache.items() if host == server_name]
        for cid in stale:
            del self._cache[cid]
        self.invalidated += len(stale)
        return len(stale)

    def submit(self, spec: CallSpec, tag: str = "") -> Signal:
        """Submit an event through this client."""
        return self.runtime.submit(self, spec, tag=tag)


class RuntimeBase:
    """Common engine: contexts, clients, events, the method-body driver."""

    system_name = "base"
    #: Multiplier on all CPU work (Orleans' managed-runtime overhead).
    cpu_factor = 1.0
    #: Whether ``async`` call decorations run asynchronously (EventWave
    #: lacks asynchronous method calls inside events; they run inline).
    supports_async = True
    #: Whether read-only events share locks (single-threaded grains and
    #: EventWave treat everything as exclusive).
    supports_readonly = True
    #: Whether nested calls are restricted to transitively owned
    #: contexts (Orleans grains are unordered).
    enforce_ownership = True

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        cluster: Cluster,
        costs: CostModel = DEFAULT_COSTS,
        record_history: bool = False,
    ) -> None:
        self.sim = sim
        self.network = network
        self.cluster = cluster
        self.costs = costs
        self._closed = False
        self.ownership = OwnershipNetwork()
        self.analysis = StaticAnalysis()
        self._new_context_state()
        self.latency = LatencyRecorder()
        self.history: Optional[HistoryRecorder] = HistoryRecorder() if record_history else None
        self._eid_counter = 0
        self._cid_counters: Dict[str, int] = {}
        # (context class, method name) -> (bound-call function, readonly
        # flag, cpu cost): the body driver resolves method metadata once
        # per class instead of two getattrs per call.
        self._method_meta: Dict[Tuple[type, str], Tuple[Any, bool, float]] = {}
        self._clients: Dict[str, ClientHandle] = {}
        self._registered_classes: Set[str] = set()
        self.events_inflight = 0
        self.events_completed = 0
        self.events_failed = 0
        #: Honest failure semantics (all off by default, enabled by the
        #: eManager's fault-tolerance wiring): a fencing table rejects
        #: writes into declared-dead subtrees, crashed servers drop their
        #: contexts' volatile state, and restores account the committed
        #: writes a rollback discarded.
        self.fencing: Optional[FencingTable] = None
        self.writes_rolled_back = 0
        self._honest = False
        self._charge_obj = CpuCharge(None, 0.0)  # reused; see _charge
        # Per-event lock bookkeeping (held set, open branch count,
        # quiescence signal, deferred lock list) lives on the Event
        # object itself — see repro.core.events.Event.
        for server in cluster.servers.values():
            self.attach_server(server)

    def _new_context_state(self) -> None:
        """Start from empty per-context state.

        Product code iterates these maps (the eManager's scale-in scan
        walks ``placement.items()``), so their insertion order is part
        of the determinism contract.
        """
        #: cid -> live instance.
        self.instances: Dict[str, ContextClass] = {}
        #: cid -> hosting server name (the paper's context mapping, §5).
        self.placement: Dict[str, str] = {}
        #: cid -> per-context lock (§4).
        self.locks: Dict[str, ContextLock] = {}
        #: cid -> contextclass of every bulk-registered context that has
        #: no instance yet; ``instance_of`` pops it on first touch.
        self._lazy_classes: Dict[str, Type[ContextClass]] = {}

    def close(self) -> None:
        """End this runtime's life; idempotent.

        Lets go of every context and client: each instance and each
        client handle refers back to the runtime, so these two are what
        kept a finished run alive until a collector pass.  What remains
        is an empty world that refuses new contexts and events — the
        metrics recorded so far stay readable.  Close the simulator
        first (:meth:`repro.sim.kernel.Simulator.close`).
        """
        if self._closed:
            return
        self._closed = True
        self._new_context_state()
        self.ownership = OwnershipNetwork()
        self._clients = {}

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def attach_server(self, server: Server) -> None:
        """Register a (possibly newly provisioned) server with the fabric."""
        if not self.network.is_registered(server.name):
            self.network.register(server.name, server.mailbox, server.itype)

    def server_of(self, cid: str) -> Server:
        """The server currently hosting context ``cid``."""
        owner = self.placement.get(cid)
        if owner is None:
            self._ensure_placed(cid)
            owner = self.placement[cid]
        return self.cluster.servers[owner]

    def _ensure_placed(self, cid: str) -> None:
        if cid in self.placement:
            return
        if not self.ownership.is_virtual(cid):
            raise UnknownContextError(f"context {cid!r} has no placement")
        # Virtual join contexts carry no state; host them with their
        # first placed member so dominator hops stay short.
        for child in sorted(self.ownership.children(cid)):
            if child in self.placement:
                self.placement[cid] = self.placement[child]
                return
        raise UnknownContextError(f"virtual context {cid!r} has no placed member")

    def _charge(self, server: Server, work_ms: float) -> CpuCharge:
        """A kernel-interpreted CPU charge: ``yield self._charge(...)``.

        Occupies ``server``'s CPU for ``work_ms`` of unit work scaled by
        the instance speed (open-coded ``itype.cpu_ms``).  The process
        trampoline runs the acquire/hold/release sequence directly, so
        no generator is allocated or walked per charge.
        One mutable CpuCharge is reused for every call: the kernel
        consumes it synchronously within the same send (a yielded
        charge reaches the trampoline before any other code runs), so
        it is never live twice.
        """
        charge = self._charge_obj
        charge.resource = server.cpu
        charge.delay = work_ms * self.cpu_factor / server.itype.speed
        return charge

    def lock_of(self, cid: str) -> ContextLock:
        """The lock object for ``cid`` (created lazily for virtual joins)."""
        lock = self.locks.get(cid)
        if lock is None:
            lock = ContextLock(self.sim, cid)
            self.locks[cid] = lock
        return lock

    # ------------------------------------------------------------------
    # Context lifecycle
    # ------------------------------------------------------------------
    def create_context(
        self,
        cls: Type[ContextClass],
        owners: Sequence[ContextRef] = (),
        server: Optional[Server] = None,
        name: Optional[str] = None,
        args: Sequence[Any] = (),
        kwargs: Optional[Dict[str, Any]] = None,
    ) -> ContextRef:
        """Create a context of ``cls`` owned by ``owners`` on ``server``.

        Runs the static analysis for newly seen contextclasses, registers
        the context in the ownership network (cycle-checked), places it
        and then runs ``__init__`` (whose ref-field assignments create
        further ownership edges).
        """
        if self._closed:
            raise AeonError(f"{self.system_name} runtime is closed")
        if not (isinstance(cls, type) and issubclass(cls, ContextClass)):
            raise TypeError(f"create_context requires a ContextClass, got {cls!r}")
        self._register_class(cls)
        count = self._cid_counters.get(cls.__name__, 0) + 1
        self._cid_counters[cls.__name__] = count
        cid = name or f"{cls.__name__.lower()}-{count}"
        host = server or self._default_server()
        # The ownership layer knows every registered cid (bulk leaves
        # without an instance and virtual joins too) and validates
        # before it changes anything; nothing else up to ``__init__``
        # can fail.
        self.ownership.add_context(cid, parents=[owner.cid for owner in owners])
        instance = cls._aeon_new(self, cid)
        self.instances[cid] = instance
        self.placement[cid] = host.name
        host.context_count += 1
        self.locks[cid] = ContextLock(self.sim, cid)
        try:
            instance.__init__(*args, **(kwargs or {}))
        except Exception:
            # Roll back a half-created context so the network stays sane.
            del self.instances[cid]
            self.ownership.remove_context(cid)
            del self.placement[cid]
            host.context_count -= 1
            del self.locks[cid]
            raise
        return instance.ref

    def _register_class(self, cls: Type[ContextClass]) -> None:
        if cls.__name__ in self._registered_classes:
            return
        self._registered_classes.add(cls.__name__)
        self.analysis.register(cls.__name__, cls.declared_ref_types())
        if self.enforce_ownership:
            # Orleans grains are unordered; only DAG-disciplined
            # runtimes reject cyclic contextclass constraints.
            self.analysis.check()

    def _default_server(self) -> Server:
        alive = self.cluster.alive_servers()
        if not alive:
            raise AeonError("no alive servers to place a context on")
        return min(alive.values(), key=lambda s: (s.context_count, s.name))

    def instance_of(self, ref_or_cid: Any) -> ContextClass:
        """The live instance behind a ref or context id."""
        cid = ref_or_cid.cid if isinstance(ref_or_cid, ContextRef) else ref_or_cid
        instance = self.instances.get(cid)
        if instance is not None:
            return instance
        cls = self._lazy_classes.pop(cid, None)
        if cls is None:
            raise UnknownContextError(f"unknown context {cid!r}")
        # First touch of a bulk-registered context.
        instance = self.instances[cid] = cls._aeon_new(self, cid)
        instance.__init__()
        return instance

    def create_contexts_bulk(
        self,
        cls: Type[ContextClass],
        cids: Sequence[str],
        servers: Sequence[Server],
        parents: Optional[Sequence[Optional[ContextRef]]] = None,
    ) -> None:
        """Register a large population of contexts without instantiating them.

        The massive-tier fast path: every context is placed (round-robin
        over ``servers``) and registered in the ownership network, but
        the Python instance — and its lock — materialize lazily on first
        touch, so a million registered players cost two dict entries
        and ownership bookkeeping each, not a million object graphs.
        Requirements: ``cls.__init__`` must be callable with no
        arguments, and ``parents`` (if given) is aligned with ``cids``.
        Lock/instance creation order — hence the trace — is driven
        entirely by deterministic event order.

        All or nothing: a cid that is already registered or repeated in
        the batch, an unknown parent or a ``parents`` of the wrong
        length raises before anything is registered.
        """
        if self._closed:
            raise AeonError(f"{self.system_name} runtime is closed")
        if not (isinstance(cls, type) and issubclass(cls, ContextClass)):
            raise TypeError(f"create_contexts_bulk requires a ContextClass, got {cls!r}")
        if not servers:
            raise AeonError("create_contexts_bulk needs at least one server")
        self._register_class(cls)
        if parents is None:
            parent_cids: List[Optional[str]] = [None] * len(cids)
        else:
            parent_cids = [None if p is None else p.cid for p in parents]
        # The ownership layer validates the whole batch before it
        # changes anything, and nothing after this call can fail.
        self.ownership.add_leaves(cids, parent_cids)
        count = len(cids)
        n_servers = len(servers)
        names = [server.name for server in servers]
        self.placement.update(zip(cids, [names[i % n_servers] for i in range(count)]))
        self._lazy_classes.update(dict.fromkeys(cids, cls))
        for i, server in enumerate(servers):
            server.context_count += count // n_servers + (1 if i < count % n_servers else 0)

    # Ownership hooks used by the Ref/RefSet descriptors.
    def ownership_link(self, owner_cid: str, child_cid: str) -> None:
        """Record a direct-ownership edge (ref-field assignment).

        Runtimes without an ownership discipline (Orleans) keep the ref
        but tolerate reference cycles: the edge is simply not recorded
        in the (acyclic) network.
        """
        if self.enforce_ownership:
            self.ownership.add_edge(owner_cid, child_cid)
            return
        try:
            self.ownership.add_edge(owner_cid, child_cid)
        except OwnershipCycleError:
            pass

    def ownership_unlink(self, owner_cid: str, child_cid: str) -> None:
        """Drop a direct-ownership edge (ref-field clearing)."""
        self.ownership.remove_edge(owner_cid, child_cid)

    # ------------------------------------------------------------------
    # Clients and event submission
    # ------------------------------------------------------------------
    def register_client(self, name: str) -> ClientHandle:
        """Register a client endpoint on the network fabric."""
        if name in self._clients:
            return self._clients[name]
        handle = ClientHandle(self, name)
        self._clients[name] = handle
        if not self.network.is_registered(name):
            self.network.register(name)
        return handle

    def enable_honest_failures(self, fencing: Optional[FencingTable] = None) -> None:
        """Turn on honest failure semantics for this runtime.

        Installs the (optional) fencing table on the write path and
        activates the dropped-state check in the body driver.  Called by
        the eManager's fault-tolerance wiring; never on the default path,
        so golden-pinned runs execute byte-identically.
        """
        self._honest = True
        if fencing is not None:
            self.fencing = fencing

    def drop_server_state(self, server_name: str) -> int:
        """Crash realism: drop the volatile state of a server's contexts.

        Called from the server's crash hook.  Every context currently
        placed on ``server_name`` loses its in-memory state (methods fail
        until a restore rehydrates it); the pre-crash version survives as
        bookkeeping so recovery can count the rolled-back writes.
        Returns the number of contexts dropped.
        """
        dropped = 0
        for cid in sorted(self.placement):
            if self.placement[cid] != server_name:
                continue
            instance = self.instances.get(cid)
            if instance is not None:
                instance.drop_volatile_state()
                dropped += 1
        return dropped

    def invalidate_cached_locations(self, server_name: str) -> int:
        """Push-invalidate every client cache entry pointing at a server.

        Driven by the failure detector's declarations (via the eManager)
        and by scale-in decommissions: instead of each client discovering
        the stale entry one failed event at a time, the whole population
        drops its entries at once.  Returns the number of entries
        dropped.  Deterministic: clients are visited in sorted order.
        """
        total = 0
        for name in sorted(self._clients):
            total += self._clients[name].invalidate_server(server_name)
        return total

    def submit(self, client: ClientHandle, spec: CallSpec, tag: str = "") -> Signal:
        """Submit ``spec`` as an event; returns a signal with the Event.

        The signal always *succeeds* (with the Event object); application
        errors are surfaced via ``event.error`` so that lock cleanup and
        metrics stay uniform.
        """
        if self._closed:
            raise AeonError(f"{self.system_name} runtime is closed")
        instance = self.instance_of(spec.target)
        _func, ro_method, _cost = self._method_meta_for(instance, spec.method)
        ro_allowed = self.supports_readonly and ro_method
        mode = AccessMode.RO if ro_allowed else AccessMode.EX
        self._eid_counter += 1
        event = Event(self._eid_counter, spec, mode, client.name, self.sim.now, tag)
        completion = Signal(self.sim, "event")
        self.events_inflight += 1
        _EventProcess(self, event, completion, self._event_process(event, client))
        return completion

    def _finish_event(self, event: Event, completion: Signal) -> None:
        if event.committed_ms is None:
            event.committed_ms = self.sim.now
        # Safety net: release anything still held (error paths); a None
        # held-set marks the event finished for late branch cleanup.
        held, event.held = event.held, None
        if held:
            for cid in list(held):
                self.lock_of(cid).release(event)
        event.quiescent = None
        event.deferred_locks = []
        self.events_inflight -= 1
        self.events_completed += 1
        # Errored events (including delivery failures during a crash or
        # partition — surfaced on event.error as retryable) are recorded
        # under FAILED_TAG so availability analyses can separate goodput
        # from lost work without a second recorder on this hot path.
        if event.error is None:
            self.latency.record(event.submitted_ms, self.sim.now, tag=event.tag)
        else:
            self.events_failed += 1
            self.latency.record(event.submitted_ms, self.sim.now, tag=FAILED_TAG)
        if self.history is not None and event.error is None:
            self.history.commit(
                event.eid,
                event.tag,
                event.submitted_ms,
                event.committed_ms,
                event.reads,
                event.writes,
            )
        # The paper: sub-events dispatched within an event execute after
        # their creator finishes.
        client = self._clients[event.client]
        for sub_spec in event.sub_events:
            self.submit(client, sub_spec, tag=event.tag + "/sub" if event.tag else "sub")
        completion.succeed(event)

    # ------------------------------------------------------------------
    # Branch bookkeeping
    # ------------------------------------------------------------------
    def _branch_opened(self, event: Event) -> None:
        event.open_branches += 1

    def _branch_closed(self, event: Event) -> None:
        event.open_branches -= 1
        if event.open_branches <= 0:
            waiter = event.quiescent
            if waiter is not None and not waiter.triggered:
                waiter.succeed(None)

    def _await_quiescence(self, event: Event) -> Generator:
        """Wait until all branches (root + asyncs) of ``event`` are done.

        Callers guard with ``if event.open_branches > 0`` to skip the
        generator entirely in the common no-async case.
        """
        if event.open_branches > 0:
            waiter = Signal(self.sim, "quiescent")
            event.quiescent = waiter
            yield waiter

    # ------------------------------------------------------------------
    # Method-body driver (shared by all runtimes)
    # ------------------------------------------------------------------
    def _method_meta_for(self, instance: ContextClass, name: str) -> Tuple[Any, bool, float]:
        """Resolve ``(callable, readonly, cpu_ms)`` for a method, cached.

        The cache key is the context *class*: plain functions (the
        normal case) are stored unbound and called with the instance,
        so one entry serves every context of the class.  Non-function
        callables (rare) are resolved per call via getattr.
        """
        cls = instance.__class__
        key = (cls, name)
        meta = self._method_meta.get(key)
        if meta is None:
            method = getattr(instance, name, None)
            if method is None or not callable(method):
                raise AeonError(f"{cls.__name__} has no method {name!r}")
            func = getattr(method, "__func__", None)
            if func is None or getattr(cls, name, None) is not func:
                func = None  # instance-level or exotic callable: no cache
            meta = (
                func,
                is_readonly(method),
                method_cost(method, self.costs.method_cpu_ms),
            )
            self._method_meta[key] = meta
        return meta

    def _drive_body(self, event: Event, spec: CallSpec, branch: Branch) -> Generator:
        """Execute one method call at the context's current server.

        Charges the method's CPU cost, tracks read/write versions, then
        interprets the generator yield protocol in place (one frame for
        both the call and its yield loop — every ``yield from`` level
        is walked on every resume, so the driver stays flat).  Returns
        the method's return value.
        """
        target = spec.target
        instance = self.instances.get(target)
        if instance is None:
            instance = self.instance_of(target)  # first touch of a bulk leaf
        owner = self.placement.get(target)
        if owner is not None:
            server = self.cluster.servers[owner]
        else:
            server = self.server_of(target)
        meta = self._method_meta.get((instance.__class__, spec.method))
        if meta is None:
            meta = self._method_meta_for(instance, spec.method)
        func, ro_method, cost_ms = meta
        if event.mode is AccessMode.RO and not ro_method:
            raise ReadOnlyViolationError(
                f"read-only event {event.eid} called non-readonly "
                f"{type(instance).__name__}.{spec.method}"
            )
        # Honest failure semantics (off on the default fast path): a
        # context whose host crashed has no state until rehydrated, and
        # writes into a fenced (declared-dead) subtree are rejected
        # before they can mutate anything.
        if self._honest:
            if instance._aeon_state_dropped:
                raise RetryableError(
                    f"context {instance.cid!r} lost its volatile state in a "
                    f"crash; retry after checkpoint rehydration"
                )
            if not ro_method and self.fencing is not None:
                self.fencing.check_write(instance.cid)
        # Version tracking (_record_access, inlined: once per call).
        cid = instance._aeon_cid
        writes = event.writes
        if ro_method:
            if cid not in writes:
                event.reads[cid] = instance._aeon_version
        else:
            if cid not in writes:
                instance._aeon_version += 1
            writes[cid] = instance._aeon_version
        yield self._charge(server, cost_ms)
        if func is not None:
            outcome = func(instance, *spec.args, **spec.kwargs)
        else:
            outcome = getattr(instance, spec.method)(*spec.args, **spec.kwargs)
        if not _is_generator(outcome):
            return outcome

        body = outcome
        send_value: Any = None
        thrown: Optional[BaseException] = None
        while True:
            try:
                if thrown is not None:
                    exc, thrown = thrown, None
                    item = body.throw(exc)
                else:
                    item = body.send(send_value)
            except StopIteration as stop:
                return stop.value
            send_value = None
            try:
                if isinstance(item, CallSpec):
                    self._check_ownership_discipline(target, item.target)
                    send_value = yield from self._sync_call(
                        event, item, branch, server, target
                    )
                elif isinstance(item, AsyncCall):
                    self._check_ownership_discipline(target, item.spec.target)
                    if self.supports_async:
                        self._spawn_async(event, item.spec, server, target)
                    else:
                        # EventWave has no async method calls inside
                        # events; the call degrades to synchronous.
                        yield from self._sync_call(
                            event, item.spec, branch, server, target
                        )
                elif isinstance(item, SubEvent):
                    event.sub_events.append(item.spec)
                elif isinstance(item, Compute):
                    yield self._charge(server, item.work_ms)
                elif isinstance(item, Sleep):
                    yield float(item.delay_ms)
                else:
                    raise AeonError(
                        f"method {spec.method!r} yielded unsupported {item!r}"
                    )
            except Exception as exc:  # noqa: BLE001 - give the body a chance
                thrown = exc

    def _check_ownership_discipline(self, caller_cid: str, callee_cid: str) -> None:
        """Callers may only call into contexts they transitively own."""
        if not self.enforce_ownership:
            return
        if callee_cid == caller_cid:
            return
        if not self.ownership.owns(caller_cid, callee_cid):
            raise OwnershipViolationError(
                f"context {caller_cid!r} does not own {callee_cid!r}"
            )

    # ------------------------------------------------------------------
    # Lock reservation and release (shared by AEON and EventWave)
    # ------------------------------------------------------------------
    def _reserve(self, event: Event, branch: Branch, cid: str) -> Signal:
        """Reserve a FIFO position on ``cid``'s lock for ``event``.

        Performed synchronously (no simulated delay) at call-initiation
        time, while the caller's locks are still held — this is what
        makes the per-context execution order inherit the sequencer
        (dominator / root) order, and what keeps chain release safe.
        """
        lock = self.locks.get(cid)
        if lock is None:
            lock = self.lock_of(cid)
        grant, owned = lock.request(event)
        event.held.add(cid)
        if owned:
            branch.locks.append(cid)
        return grant

    def _reserve_path(
        self, event: Event, branch: Branch, caller_cid: str, callee: str
    ) -> List[Tuple[str, Signal]]:
        """Reserve positions along ``findPath(caller, callee)`` top-down.

        Contexts already held (or reserved) by the event are skipped.
        Returns the ``(cid, grant)`` pairs to claim, in path order.
        """
        held = event.held
        path = self.ownership.find_path(caller_cid, callee)
        reserved: List[Tuple[str, Signal]] = []
        for cid in path:
            if cid in held:
                continue
            reserved.append((cid, self._reserve(event, branch, cid)))
        return reserved

    def _claim_reserved(
        self,
        event: Event,
        reserved: List[Tuple[str, Signal]],
        current: Server,
    ) -> Generator:
        """Pay hops/CPU and wait for each reserved grant, top-down."""
        for cid, grant in reserved:
            lock_server = self.server_of(cid)
            if lock_server.name != current.name:
                yield self._charge(current, self.costs.net_cpu_ms)
                event.hops += 1
                yield self.network.delay_ms(
                    current.name, lock_server.name, self.costs.proto_msg_bytes
                )
                current = lock_server
            yield self._charge(lock_server, self.costs.lock_cpu_ms)
            yield grant
        return current

    def _sync_call(
        self,
        event: Event,
        spec: CallSpec,
        branch: Branch,
        caller_server: Server,
        caller_cid: str,
    ) -> Generator:
        """Arbitrate and execute a synchronous nested call.

        Reserve-then-claim down ``findPath(caller, callee)``, run the
        callee's body, return control (and the result) to the caller's
        server.  AEON and EventWave share it; Orleans overrides it.
        """
        reserved = self._reserve_path(event, branch, caller_cid, spec.target)
        if reserved:
            current = yield from self._claim_reserved(event, reserved, caller_server)
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
        result = yield from self._drive_body(event, spec, branch)
        landed = self.server_of(spec.target)
        if landed.name != caller_server.name:
            yield self._charge(landed, self.costs.net_cpu_ms)
            event.hops += 1
            yield self.network.delay_ms(
                landed.name, caller_server.name, self.costs.proto_msg_bytes
            )
        return result

    def _release_branch_locks(self, event: Event, branch: Branch, at_server: Server) -> None:
        """Release a branch's locks in reverse acquisition order."""
        held = event.held
        locks = branch.locks
        if held is not None:
            for cid in locks:
                held.discard(cid)
        if len(locks) == 1:
            self._schedule_release(event, locks[0], at_server)
        elif locks:
            self._schedule_release_batch(event, locks[::-1], at_server)
        branch.locks = []

    def _release_deferred(self, event: Event) -> None:
        """Release locks deferred to commit (non-chain-release mode)."""
        deferred = event.deferred_locks
        held = event.held
        if not deferred:
            return
        release_from = self.server_of(event.target)
        if held is not None:
            for cid in deferred:
                held.discard(cid)
        if len(deferred) == 1:
            self._schedule_release(event, deferred[0], release_from)
        else:
            self._schedule_release_batch(event, deferred[::-1], release_from)
        event.deferred_locks = []

    def _release_delay(self, from_server: Server, cid: str) -> Optional[float]:
        """One-way release-message latency to ``cid``'s lock server.

        ``None`` means the context vanished mid-flight (crash/migration
        race) and the release must run synchronously.
        """
        try:
            lock_server_name = self.server_of(cid).name
        except Exception:  # pragma: no cover - context vanished mid-flight
            return None
        network = self.network
        if from_server.name == lock_server_name:
            return network.same_host_ms
        return network.lan_ms

    def _dispatch_release(self, lock: ContextLock, delay: float, event: Event) -> None:
        """Schedule one lock release ``delay`` ms out (0 = immediate queue)."""
        sim = self.sim
        if delay == 0.0:  # zero-latency model: immediate queue, not timers
            sim.call_soon(lock.release, event)
        else:
            sim._schedule_at(sim.now + delay, lock.release, (event,))

    def _schedule_release(self, event: Event, cid: str, from_server: Server) -> None:
        """Release ``cid`` after the release message's one-way latency."""
        lock = self.locks.get(cid)
        if lock is None:
            lock = self.lock_of(cid)
        delay = self._release_delay(from_server, cid)
        if delay is None:  # pragma: no cover - context vanished mid-flight
            lock.release(event)
            return
        self._dispatch_release(lock, delay, event)

    def _schedule_release_batch(
        self, event: Event, cids: List[str], from_server: Server
    ) -> None:
        """Schedule several same-timestamp lock releases, batched.

        All releases issued by one closing branch (or a commit) share the
        current timestamp; releases whose messages have the same one-way
        latency land at the same instant with *consecutive* sequence
        numbers, so the dispatch loop would run them back to back with
        nothing in between.  Batching them into a single queue entry per
        distinct latency preserves that exact order while paying one
        timer push (and one dispatch) per group instead of per lock.
        """
        sim = self.sim
        locks_by_cid = self.locks
        groups: Dict[float, List[ContextLock]] = {}
        for cid in cids:
            lock = locks_by_cid.get(cid)
            if lock is None:
                lock = self.lock_of(cid)
            delay = self._release_delay(from_server, cid)
            if delay is None:  # pragma: no cover - context vanished mid-flight
                lock.release(event)
                continue
            group = groups.get(delay)
            if group is None:
                groups[delay] = [lock]
            else:
                group.append(lock)
        for delay, locks in groups.items():
            if len(locks) == 1:
                self._dispatch_release(locks[0], delay, event)
                continue
            if delay == 0.0:
                sim.call_soon(_release_lock_batch, locks, event)
            else:
                sim._schedule_at(sim.now + delay, _release_lock_batch, (locks, event))

    # ------------------------------------------------------------------
    # Protocol-specific hooks
    # ------------------------------------------------------------------
    def _event_process(self, event: Event, client: ClientHandle) -> Generator:
        """Drive one event end to end (subclass responsibility)."""
        raise NotImplementedError

    def _spawn_async(
        self, event: Event, spec: CallSpec, caller_server: Server, caller_cid: str
    ) -> None:
        """Spawn an asynchronous nested call (joined before completion)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def context_count(self) -> int:
        """Number of live (non-virtual) contexts, including bulk-registered
        ones whose instances have not materialized yet."""
        return len(self.instances) + len(self._lazy_classes)

    def check_history(self) -> None:
        """Run the strict-serializability checker (requires history)."""
        if self.history is None:
            raise AeonError("runtime was created without record_history=True")
        self.history.check()


class _EventProcess(Process):
    """The simulator process driving one event end to end.

    Historically ``submit`` wrapped ``_event_process`` in a closure
    generator for the try/except/finally bookkeeping — one extra frame
    walked on *every* resume of *every* event.  This subclass hooks the
    process completion instead, at exactly the points where the wrapper
    ran: ``_finish_event`` fires synchronously inside the final step,
    application exceptions are surfaced on ``event.error`` and the
    process still *succeeds* (with the Event), so lock cleanup and
    metrics stay uniform.
    """

    __slots__ = ("_runtime", "_event", "_completion")

    def __init__(
        self,
        runtime: "RuntimeBase",
        event: Event,
        completion: Signal,
        generator: Generator,
    ) -> None:
        self._runtime = runtime
        self._event = event
        self._completion = completion
        super().__init__(runtime.sim, generator, name="event")

    def succeed(self, value: Any = None) -> Signal:
        self._runtime._finish_event(self._event, self._completion)
        return super().succeed(self._event)

    def fail(self, exc: BaseException) -> Signal:
        if isinstance(exc, Exception):
            # Application error: surfaced on the event, then a normal
            # finish (mirrors the old wrapper's `except Exception`).
            self._event.error = exc
            self._runtime._finish_event(self._event, self._completion)
            return super().succeed(self._event)
        self._runtime._finish_event(self._event, self._completion)
        return super().fail(exc)

    def _abandon(self) -> None:
        super()._abandon()
        self._runtime = self._event = self._completion = None


def _is_generator(value: Any) -> bool:
    return hasattr(value, "send") and hasattr(value, "throw")


def _release_lock_batch(locks: List[ContextLock], event: Event) -> None:
    """Dispatch-loop callback running a batch of same-timestamp releases.

    The batch replaces what would have been one queue entry per lock
    with consecutive sequence numbers — nothing could have interleaved
    between them, so running them back to back here is order-identical.
    """
    for lock in locks:
        lock.release(event)
