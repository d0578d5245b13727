"""Shared runtime machinery for every system in the repository.

:class:`RuntimeBase` owns what all three runtimes (AEON, EventWave,
Orleans) have in common:

* context creation/placement and the ownership network bookkeeping,
* client registration with cached (possibly stale) context→server maps,
* event submission, metrics and history recording,
* the *body driver* that executes a context method written as a plain
  function or a generator yielding :class:`~repro.core.events.CallSpec`,
  ``async_``/``dispatch`` markers, ``compute`` and ``sleep``,
* the message hop, the client ingress and the branch close.

Subclasses implement admission only: how an event is sequenced on its
way to the target (:meth:`RuntimeBase._event_process`) and how
asynchronous calls are spawned (:meth:`RuntimeBase._spawn_async`);
Orleans also replaces the reserve-then-claim arbitration of a
synchronous nested call (:meth:`RuntimeBase._sync_call`).
"""

from __future__ import annotations

import sys
from types import GeneratorType
from typing import (
    Any, Dict, Generator, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Type,
)

from ..sim.cluster import Cluster, Server
from ..sim.kernel import CpuCharge, Process, Signal, Simulator
from ..sim.metrics import LatencyRecorder
from ..sim.network import DeliveryError, Network
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
from .ownership import FencingTable, OwnershipNetwork, Population

__all__ = ["RuntimeBase", "ClientHandle", "FAILED_TAG"]

#: Latency-recorder tag replacing the event's own tag when it completes
#: with an error; availability experiments use it to separate goodput
#: (successful completions) from failed/lost work.
FAILED_TAG = "!failed"


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
        runtime = self.runtime
        actual = runtime.placement[cid]
        # Key the entry with the instance's own cid string, so clients
        # that reach one context through separately formatted cids
        # (``MassiveApp.sample_op``) share it rather than keep a copy each.
        instance = runtime.instances.get(cid)
        self._cache[cid if instance is None else instance._aeon_cid] = actual
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
        self.events_completed = 0
        self.events_failed = 0
        #: Failure semantics: the fencing table (installed by the
        #: eManager when fencing is on) rejects writes into declared-dead
        #: subtrees, and every rollback counts the committed writes it
        #: discarded.  The eManager and its coordinator keep no copy.
        self.fencing: Optional[FencingTable] = None
        self.writes_rolled_back = 0
        self._charge_obj = CpuCharge(None, 0.0)  # reused; see _charge
        # Per-event lock bookkeeping (held set, open branch count,
        # quiescence signal, deferred lock list) lives on the Event
        # object itself — see repro.core.events.Event.
        for server in cluster.servers.values():
            self.attach_server(server)

    @property
    def events_inflight(self) -> int:
        """Events submitted and not yet finished."""
        return self._eid_counter - self.events_completed

    def _new_context_state(self) -> None:
        """Start from empty per-context state.

        Product code iterates these maps (the eManager's scale-in scan
        walks :meth:`placement_items`), so their insertion order is part
        of the determinism contract.
        """
        #: cid -> live instance.
        self.instances: Dict[str, ContextClass] = {}
        #: cid -> hosting server name (the paper's context mapping, §5);
        #: an untouched bulk leaf has no entry (see ``placement_items``).
        self.placement: Dict[str, str] = {}
        #: cid -> per-context lock (§4), for the contexts some event
        #: holds or has a reservation on (see ``repro.core.locking``).
        self.locks: Dict[str, ContextLock] = {}
        #: The one contextclass of the bulk populations (``None`` until
        #: the first) and how many of their leaves have no instance yet:
        #: ``instance_of`` materialises such a leaf on its first touch.
        self._bulk_class: Optional[Type[ContextClass]] = None
        self._lazy_count = 0

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
        # A live lock refers back to its table: empty the table first,
        # so that no lock-table cycle outlives the run.
        self.locks.clear()
        self._new_context_state()
        self.ownership = OwnershipNetwork()
        self._clients = {}

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def attach_server(self, server: Server) -> None:
        """Register a (possibly newly provisioned) server with the fabric."""
        if not self.network.is_registered(server.name):
            self.network.register(server.name, server.itype)

    def server_of(self, cid: str) -> Server:
        """The server currently hosting context ``cid``."""
        owner = self.placement.get(cid)
        if owner is None:
            owner = self.host_of(cid)
            if owner is None:
                self._ensure_placed(cid)
                owner = self.placement[cid]
        return self.cluster.servers[owner]

    def host_of(self, cid: str) -> Optional[str]:
        """``placement.get(cid)``, answering an untouched bulk leaf from its
        population's record (its round-robin server)."""
        host = self.placement.get(cid)
        if host is None:
            found = self.ownership.member(cid)
            if found is not None:
                population, i = found
                host = population.hosts[i % len(population.hosts)]
        return host

    def placement_items(self) -> Iterator[Tuple[str, str]]:
        """Every placed context as ``(cid, host)``: ``placement.items()``,
        then each untouched bulk leaf, population by population in index
        order.  The eManager's scans of a server's contexts go through
        here, so a drain or a recovery moves untouched leaves too."""
        placement = self.placement
        yield from placement.items()
        for population, i, cid in self.ownership.bulk_members():
            if cid not in placement:
                yield cid, population.hosts[i % len(population.hosts)]

    def _ensure_placed(self, cid: str) -> None:
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

    def _hop(self, src: Server, dst_name: str, size_bytes: int) -> Generator:
        """One message from ``src`` to ``dst_name`` (``yield from``): the one
        place the sender's serialization CPU (``net_cpu_ms``) is charged,
        before the transit.  Callers skip a co-located message themselves,
        so that it builds no generator."""
        yield self._charge(src, self.costs.net_cpu_ms)
        yield self.network.delay_ms(src.name, dst_name, size_bytes)

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
        # The ownership layer knows every registered cid (untouched bulk
        # leaves and virtual joins too) and validates before it changes
        # anything; nothing else up to ``__init__`` can fail.
        self.ownership.add_context(cid, parents=[owner.cid for owner in owners])
        instance = cls._aeon_new(self, cid)
        self.instances[cid] = instance
        self.placement[cid] = host.name
        host.context_count += 1
        try:
            instance.__init__(*args, **(kwargs or {}))
        except Exception:
            # Roll back a half-created context so the network stays sane.
            del self.instances[cid]
            self.ownership.remove_context(cid)
            del self.placement[cid]
            host.context_count -= 1
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
        """The live instance behind a ref or context id.

        A bulk leaf without an instance gets it here, on its first touch,
        with its ``placement`` entry (its population's round-robin
        server); ``__init__`` runs with no arguments.  The ownership
        network learns nothing: the leaf keeps answering ownership
        queries from its population's record until a mutation names it
        (``repro.core.ownership`` § Bulk populations).  Any other cid
        without an instance (unknown, or a virtual join) is refused.
        """
        cid = ref_or_cid.cid if isinstance(ref_or_cid, ContextRef) else ref_or_cid
        instance = self.instances.get(cid)
        if instance is not None:
            return instance
        found = self.ownership.member(cid)
        if found is None:
            raise UnknownContextError(f"unknown context {cid!r}")
        population, i = found
        hosts = population.hosts
        self.placement[cid] = hosts[i % len(hosts)]
        instance = self.instances[cid] = self._bulk_class._aeon_new(self, cid)
        self._lazy_count -= 1
        instance.__init__()
        return instance

    def create_contexts_bulk(
        self,
        cls: Type[ContextClass],
        prefix: str,
        count: int,
        servers: Sequence[Server],
        parents: Optional[Iterable[Optional[ContextRef]]] = None,
    ) -> None:
        """Register ``count`` contexts ``f"{prefix}{i}"`` without touching them.

        The massive-tier fast path: the population is one record in the
        ownership network (:class:`~repro.core.ownership.Population`) —
        the prefix, the count, the servers' names and the owner cycle —
        and nothing per leaf is written at registration.  Leaf ``i`` is
        hosted on ``servers[i % len(servers)]`` and owned by
        ``parents[i % len(parents)]``; a ``parents`` as long as the
        population aligns one owner with each leaf.  Its first touch
        (``instance_of``, which ``submit`` calls before routing) writes
        its ``placement`` entry and its instance, and a lock exists only
        while an event holds or waits for it, so a million registered
        players cost one record, not a million object graphs.
        Requirements: ``cls.__init__`` must be callable with no
        arguments, every population of a runtime has the same ``cls``,
        and ``parents`` (if given, a sequence or a one-shot iterator,
        read in one pass) holds 1 to ``count`` owners.  Instance
        creation order — hence the trace — is driven entirely by
        deterministic event order.

        Every query answers an untouched leaf as it answers a touched
        one: ``server_of`` and ``host_of`` from the record, the
        ownership queries through ``OwnershipNetwork.member``, and
        :meth:`placement_items` lists it with its server.

        All or nothing: a second contextclass, a leaf that is already
        registered (an explicit cid or another population's), an
        unknown parent or an empty ``parents`` or one longer than
        ``count`` raises before anything is registered.
        """
        if self._closed:
            raise AeonError(f"{self.system_name} runtime is closed")
        if not (isinstance(cls, type) and issubclass(cls, ContextClass)):
            raise TypeError(f"create_contexts_bulk requires a ContextClass, got {cls!r}")
        if not servers:
            raise AeonError("create_contexts_bulk needs at least one server")
        if self._bulk_class is not None and cls is not self._bulk_class:
            raise AeonError(
                f"bulk population is {self._bulk_class.__name__}, "
                f"cannot bulk-register {cls.__name__}"
            )
        self._register_class(cls)
        # Comprehensions, not generator expressions: one call each, not
        # one resume per leaf.
        parent_cids = None if parents is None else tuple(
            [None if parent is None else parent.cid for parent in parents]
        )
        population = Population(
            prefix, count, tuple([server.name for server in servers]), parent_cids
        )
        # The ownership layer validates the whole population before it
        # changes anything, and nothing after this call can fail.
        self.ownership.add_population(population)
        n_servers = len(servers)
        self._bulk_class = cls
        self._lazy_count += count
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

    def rollback(self, instance: ContextClass, state: Optional[dict]) -> None:
        """Roll ``instance`` back to checkpointed ``state``.

        The one place a restore rolls state back, and so the one place
        the acked writes it discards are counted: version and ownership
        wiring come back from the checkpoint too, and the version gap is
        lost work (writes the crash took before their events finished
        are already off the counter, see :meth:`_finish_event`).  A
        recording runtime also tells its history which version the
        context went back to, so the checker can tell those lost writes
        from mis-ordered ones.

        With no ``state`` (no checkpoint covers the context) nothing is
        rolled back: the context serves again from what it holds.
        """
        if state is None:
            instance.__dict__.pop("_aeon_state_dropped", None)
            return
        self.writes_rolled_back += instance.state_restore(state)
        if self.history is not None:
            self.history.rollback(
                instance._aeon_cid, instance._aeon_version, self.sim.now
            )

    def drop_server_state(self, server_name: str) -> None:
        """Drop the volatile state of a crashed server's contexts.

        Called from the server's crash hook.  Every context currently
        placed on ``server_name`` loses its in-memory state: methods fail
        until a restore repopulates it.  The attribute values and the
        pre-crash version stay only as simulator bookkeeping, so recovery
        can count the rolled-back writes.
        """
        for cid in sorted(self.placement):
            if self.placement[cid] == server_name:
                instance = self.instances.get(cid)
                if instance is not None:
                    instance._aeon_state_dropped = True

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

    def _ingress(self, event: Event, client: ClientHandle) -> Generator:
        """Ship ``event`` to the server the client's cache names; returns
        the target's server (``yield from``).  A dead cached server makes
        the client forget the entry (a retry re-resolves) before the
        failure surfaces; a stale one forwards the event, and the client
        learns the right server (§5.1)."""
        target = event.spec.target
        size = self.costs.client_msg_bytes
        cached_name = client.locate(target)
        try:
            yield self.network.delay_ms(client.name, cached_name, size)
        except DeliveryError:
            client.forget(target)
            raise
        server = self.server_of(target)
        if cached_name != server.name:
            stale_server = self.cluster.servers.get(cached_name)
            if stale_server is not None:
                yield from self._hop(stale_server, server.name, size)
            else:
                yield self.network.delay_ms(cached_name, server.name, size)
            client.learn(target, server.name)
        return server

    def submit(self, client: ClientHandle, spec: CallSpec, tag: str = "") -> Signal:
        """Submit ``spec`` as an event; returns a signal with the Event.

        The signal always *succeeds* (with the Event object); application
        errors are surfaced via ``event.error`` so that lock cleanup and
        metrics stay uniform.
        """
        if self._closed:
            raise AeonError(f"{self.system_name} runtime is closed")
        instance = self.instances.get(spec.target)
        if instance is None:
            instance = self.instance_of(spec.target)
        meta = self._method_meta.get((instance.__class__, spec.method))
        if meta is None:
            meta = self._method_meta_for(instance, spec.method)
        mode = AccessMode.RO if self.supports_readonly and meta[1] else AccessMode.EX
        self._eid_counter += 1
        event = Event(self._eid_counter, spec, mode, client.name, self.sim.now, tag)
        return _EventProcess(self, event, self._event_process(event, client))

    def _finish_event(self, event: Event) -> None:
        if event.committed_ms is None:
            event.committed_ms = self.sim.now
        # Safety net: release anything still held (error paths); a None
        # held-set marks the event finished for late branch cleanup.
        held, event.held = event.held, None
        if held:
            locks = self.locks
            for cid in held:
                lock = locks.get(cid)
                if lock is not None:
                    lock.release(event)
        event.quiescent = None
        if event.deferred_locks:
            event.deferred_locks = []
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
            # A failed event's write into a context whose state a crash
            # dropped went with the host's memory before any client saw
            # it acked: take it back off the version counter, so the
            # rollback that follows does not count it as lost work.
            # Only a write nobody has written over yet can go.
            for cid, version in event.writes.items():
                instance = self.instances.get(cid)
                if instance is not None and instance._aeon_state_dropped:
                    if instance._aeon_version == version:
                        instance._aeon_version = version - 1
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
        # their creator finishes.  Their tag is interned, so the latency
        # recorder keeps one string per tag, not one per record.
        if event.sub_events:
            client = self._clients[event.client]
            tag = sys.intern(event.tag + "/sub") if event.tag else "sub"
            for sub_spec in event.sub_events:
                self.submit(client, sub_spec, tag=tag)

    # ------------------------------------------------------------------
    # Branch bookkeeping
    # ------------------------------------------------------------------
    def _close_branch(self, event: Event, branch: List[str], at_server: Server) -> None:
        """Close a branch: release its locks (or defer them to commit).

        The caller hops first, itself (``yield None``), on the error path
        too.  Not a ``finally``: a generator that dies with its run (see
        ``Simulator.close``) must not yield on the way out.  The hop lets
        continuations spawned in the final body step take their first
        step before the release admits competitors (belt-and-braces:
        their positions are reserved).  The branch holds its target's
        lock through the hop, and a placement moves only under that
        lock, so ``at_server`` may be read after it.
        """
        if self.costs.early_release:
            self._release_branch_locks(event, branch, at_server)
        else:
            event.deferred_locks.extend(branch)
            branch.clear()
        self._branch_closed(event)

    def _branch_closed(self, event: Event) -> None:
        event.open_branches -= 1
        if event.open_branches <= 0:
            waiter = event.quiescent
            if waiter is not None and not waiter.triggered:
                waiter.succeed(None)

    def _await_quiescence(self, event: Event) -> Generator:
        """Wait until all branches (root + asyncs) of ``event`` are done.

        Callers test ``event.open_branches > 0`` first, so the common
        no-async case builds no generator.
        """
        waiter = event.quiescent = Signal(self.sim, "quiescent")
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

    def _drive_body(self, event: Event, spec: CallSpec, branch: List[str]) -> Generator:
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
        # A context whose host crashed has no state until rehydrated, and
        # writes into a fenced (declared-dead) subtree are rejected
        # before they can mutate anything.
        if instance._aeon_state_dropped:
            raise RetryableError(
                f"context {instance.cid!r} lost its volatile state in a "
                f"crash; retry after checkpoint rehydration"
            )
        if self.fencing is not None and not ro_method:
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
        # An exact type test, not duck typing: a ContextRef answers every
        # public name, ``send`` and ``throw`` included.
        if type(outcome) is not GeneratorType:
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
    # Lock reservation and release.  A *branch* is one execution strand
    # of an event (the root body, an async call, an Orleans turn): the
    # plain list of the cids it owns, in acquisition order.
    # ------------------------------------------------------------------
    def _reserve(self, event: Event, branch: List[str], cid: str) -> Signal:
        """Reserve a FIFO position on ``cid``'s lock for ``event``.

        Performed synchronously (no simulated delay) at call-initiation
        time, while the caller's locks are still held — this is what
        makes the per-context execution order inherit the sequencer
        (dominator / root) order, and what keeps chain release safe.
        """
        locks = self.locks
        lock = locks.get(cid)
        if lock is None:
            # ``locking.acquire`` open-coded: one call per reservation.
            ContextLock(self.sim, locks, cid, event)
            event.held.add(cid)
            branch.append(cid)
            return self.sim.ready
        grant, owned = lock.request(event)
        event.held.add(cid)
        if owned:
            branch.append(cid)
        return grant

    def _reserve_path(
        self, event: Event, branch: List[str], caller_cid: str, callee: str
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
        """Pay hops/CPU and wait for each reserved grant, top-down.

        :meth:`_sync_call` open-codes this loop: one generator and one
        ``yield from`` level fewer per nested call on the common path.
        """
        for cid, grant in reserved:
            lock_server = self.server_of(cid)
            if lock_server.name != current.name:
                yield from self._hop(current, lock_server.name, self.costs.proto_msg_bytes)
                current = lock_server
            yield self._charge(lock_server, self.costs.lock_cpu_ms)
            yield grant
        return current

    def _sync_call(
        self,
        event: Event,
        spec: CallSpec,
        branch: List[str],
        caller_server: Server,
        caller_cid: str,
    ) -> Generator:
        """Arbitrate and execute a synchronous nested call.

        Reserve-then-claim down ``findPath(caller, callee)``, run the
        callee's body, return control (and the result) to the caller's
        server.  AEON and EventWave share it; Orleans overrides it.
        """
        current = caller_server
        for cid, grant in self._reserve_path(event, branch, caller_cid, spec.target):
            lock_server = self.server_of(cid)
            if lock_server.name != current.name:
                yield from self._hop(current, lock_server.name, self.costs.proto_msg_bytes)
                current = lock_server
            yield self._charge(lock_server, self.costs.lock_cpu_ms)
            yield grant
        callee_server = self.server_of(spec.target)
        if current.name != callee_server.name:
            yield from self._hop(current, callee_server.name, self.costs.proto_msg_bytes)
        yield self._charge(callee_server, self.costs.route_cpu_ms)
        result = yield from self._drive_body(event, spec, branch)
        landed = self.server_of(spec.target)
        if landed.name != caller_server.name:
            yield from self._hop(landed, caller_server.name, self.costs.proto_msg_bytes)
        return result

    def _release_branch_locks(self, event: Event, branch: List[str], at_server: Server) -> None:
        """Release a branch's locks from ``at_server`` and empty it."""
        self._release(event, branch, at_server)
        branch.clear()

    def _release_deferred(self, event: Event) -> None:
        """Release locks deferred to commit (non-chain-release mode)."""
        deferred = event.deferred_locks
        if deferred:
            event.deferred_locks = []
            self._release(event, deferred, self.server_of(event.target))

    def _release(self, event: Event, cids: List[str], from_server: Server) -> None:
        """Give back ``cids`` (in acquisition order) in reverse order.

        The one place a lock release is armed.  Each release lands after
        its message's one-way latency from ``from_server`` to the lock's
        server; a lock no longer in the table was released already, by
        ``_finish_event``.  Every release armed here shares the current
        timestamp, so releases with one latency would have landed at the
        same instant with *consecutive* sequence numbers: the dispatch
        loop would have run them back to back with nothing in between.
        One queue entry per distinct latency, its locks in first-seen
        order, therefore keeps that exact order.
        """
        held = event.held
        if held is not None:
            for cid in cids:
                held.discard(cid)
        locks = self.locks
        network = self.network
        here = from_server.name
        groups: Dict[float, List[ContextLock]] = {}
        for cid in reversed(cids):
            lock = locks.get(cid)
            if lock is None:
                continue
            if self.server_of(cid).name == here:
                delay = network.same_host_ms
            else:
                delay = network.lan_ms
            group = groups.get(delay)
            if group is None:
                groups[delay] = [lock]
            else:
                group.append(lock)
        sim = self.sim
        now = sim.now
        for delay, group in groups.items():
            if len(group) == 1:
                sim._schedule_at(now + delay, group[0].release, event)
            else:
                sim._schedule_at(now + delay, _release_lock_batch, (group, event))

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
        """Number of live (non-virtual) contexts, including bulk leaves
        nobody has touched yet (counted, not stored)."""
        return len(self.instances) + self._lazy_count

    def check_history(self) -> int:
        """Run the strict-serializability checker (requires history);
        returns its lost-update count."""
        if self.history is None:
            raise AeonError("runtime was created without record_history=True")
        return self.history.check()


class _EventProcess(Process):
    """The simulator process driving one event end to end.

    Historically ``submit`` wrapped ``_event_process`` in a closure
    generator for the try/except/finally bookkeeping — one extra frame
    walked on *every* resume of *every* event.  This subclass hooks the
    process completion instead, at exactly the points where the wrapper
    ran: ``_finish_event`` fires synchronously inside the final step,
    application exceptions are surfaced on ``event.error`` and the
    process still *succeeds* (with the Event), so lock cleanup and
    metrics stay uniform.  The process is also the signal ``submit``
    returns: the client's waiter is queued by ``super().succeed`` right
    after ``_finish_event``'s last action.
    """

    __slots__ = ("_runtime", "_event")

    def __init__(self, runtime: "RuntimeBase", event: Event, generator: Generator) -> None:
        self._runtime = runtime
        self._event = event
        super().__init__(runtime.sim, generator, name="event")

    def succeed(self, value: Any = None) -> Signal:
        self._runtime._finish_event(self._event)
        return super().succeed(self._event)

    def fail(self, exc: BaseException) -> Signal:
        if isinstance(exc, Exception):
            # Application error: surfaced on the event, then a normal
            # finish (mirrors the old wrapper's `except Exception`).
            self._event.error = exc
            self._runtime._finish_event(self._event)
            return super().succeed(self._event)
        self._runtime._finish_event(self._event)
        return super().fail(exc)

    def _abandon(self) -> None:
        super()._abandon()
        self._runtime = self._event = None


def _release_lock_batch(batch: Tuple[List[ContextLock], Event]) -> None:
    """Dispatch-loop callback running a batch of same-timestamp releases:
    ``batch`` is ``(locks, event)``, a queued callback's one argument.

    The batch replaces what would have been one queue entry per lock
    with consecutive sequence numbers — nothing could have interleaved
    between them, so running them back to back here is order-identical.
    """
    locks, event = batch
    for lock in locks:
        lock.release(event)
