"""Message transport between simulated endpoints.

Endpoints (servers, clients, the eManager) register under a name.  There
is one way across the fabric: a transmission computes when its bytes
reach the destination — propagation latency plus transmission time
(size / sender NIC bandwidth) behind the sender's earlier traffic.  A
process hop (:meth:`Network.delay_ms`) yields that wait; a message
(:meth:`Network.send`) runs its ``on_delivered(payload)`` callback at
that time.  Two properties matter to the runtimes built on top:

* **FIFO per sender→receiver pair** — the AEON dominator protocol and the
  EventWave root sequencer both assume ordered channels.  It holds by
  construction: a sender's transmissions finish at
  ``max(now, previous finish) + size × ms/byte``, never before the
  previous one (IEEE addition of a non-negative term is monotone), and
  delivery adds a propagation latency that is constant per pair, so
  delivery times per (src, dst) pair never decrease.
* **Bandwidth serialization per sender** — large transfers (context
  migrations) queue on the sender's egress link, which is what bounds the
  eManager migration throughput in Fig. 9.

Fault injection (:mod:`repro.faults`) plugs in through one hook kept
deliberately cheap when unused: ``fault``, an optional filter object
consulted on every transmission.  It is duck typed: ``check_hop(src,
dst)`` raises :class:`DeliveryError` when a process-style hop cannot
reach its destination (endpoint down, network partition); ``drops(src,
dst)`` says whether a fire-and-forget message is lost.  Process hops
model TCP-like protocol channels (loss is a hard failure), messages
model UDP-like traffic (heartbeats) that is silently lost.

A message's fate is decided when it is sent: it is dropped if and only
if ``fault.drops(src, dst)`` says so at send time, and otherwise its
callback runs at the delivery time, whatever happens to either endpoint
in between — a crash does not recall a message already in flight to the
crashed endpoint.  No scenario has such a message: the failure detector
is the only receiver, and it never crashes.

With no fault filter installed every code path is byte-identical to the
fault-free transport.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Set

from .cluster import InstanceType
from .kernel import Simulator

__all__ = ["Network", "DeliveryError"]


class DeliveryError(Exception):
    """A message could not reach its destination (crash or partition).

    Raised synchronously by :meth:`Network.delay_ms` when an installed
    fault filter reports the (src, dst) pair unreachable.  Marked
    ``retryable``: the failure is transient — callers (clients) may
    resubmit once the fault heals.
    """

    retryable = True


def _ms_per_byte(gbps: float) -> float:
    """Egress transmit cost in milliseconds per byte for a NIC speed."""
    return 8.0 / (gbps * 1e6) if gbps > 0 else 0.0


class Network:
    """The datacenter fabric connecting all registered endpoints.

    Propagation latency is ``same_host_ms`` when src == dst and
    ``lan_ms`` otherwise (one intra-datacenter hop, the paper's EC2
    placement); ``default_gbps`` is the NIC speed of endpoints
    registered without an instance type.
    """

    def __init__(
        self,
        sim: Simulator,
        lan_ms: float = 0.25,
        same_host_ms: float = 0.01,
        default_gbps: float = 0.7,
    ) -> None:
        self.sim = sim
        self.lan_ms = lan_ms
        self.same_host_ms = same_host_ms
        self.default_gbps = default_gbps
        self._endpoints: Set[str] = set()
        # Per-sender egress record ``[ms_per_byte, free_at_ms]`` — one
        # dict lookup per transmission instead of two: transmit cost
        # (precomputed ms/byte) and link busy-until (bandwidth FIFO).
        self._egress: Dict[str, list] = {}
        self._default_ms_per_byte = _ms_per_byte(default_gbps)
        self.messages_sent = 0
        self.bytes_sent = 0
        self.messages_dropped = 0
        #: Optional fault filter (see module docstring); installed by
        #: :class:`repro.faults.FaultInjector`, None in fault-free runs.
        self.fault: Optional[Any] = None

    def _egress_record(self, src: str) -> list:
        record = self._egress.get(src)
        if record is None:
            # Unregistered sender (tests drive these): default NIC.
            record = [self._default_ms_per_byte, 0.0]
            self._egress[src] = record
        return record

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, name: str, itype: Optional[InstanceType] = None) -> None:
        """Register an endpoint with ``itype``'s NIC (default NIC if None)."""
        if name in self._endpoints:
            raise ValueError(f"endpoint {name!r} already registered")
        self._endpoints.add(name)
        gbps = itype.nic_gbps if itype else self.default_gbps
        self._egress[name] = [_ms_per_byte(gbps), 0.0]

    def unregister(self, name: str) -> None:
        """Remove an endpoint (e.g. a decommissioned server)."""
        self._endpoints.discard(name)
        self._egress.pop(name, None)

    def is_registered(self, name: str) -> bool:
        """Whether ``name`` is a known endpoint."""
        return name in self._endpoints

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def send(
        self,
        src: str,
        dst: str,
        payload: Any,
        size_bytes: int = 256,
        on_delivered: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Send ``payload`` from ``src`` to ``dst``; at delivery, call
        ``on_delivered(payload)``.

        Delivery time = egress queueing + size/bandwidth + propagation,
        which keeps per-(src, dst) FIFO order (see the module docstring).
        Unknown destinations raise ``KeyError`` immediately (the caller —
        e.g. a client with a stale context map — handles redirection at a
        higher layer); fault-filter drops lose the message silently, like
        UDP — the sender still pays egress, so later messages queue
        behind the lost one.
        """
        if dst not in self._endpoints:
            raise KeyError(f"unknown endpoint {dst!r}")
        fault = self.fault
        dropped = fault is not None and fault.drops(src, dst)
        now = self.sim.now
        record = self._egress_record(src)
        free = record[1]
        finish = (now if now > free else free) + size_bytes * record[0]
        record[1] = finish
        deliver_at = finish + (self.same_host_ms if src == dst else self.lan_ms)
        self.messages_sent += 1
        self.bytes_sent += size_bytes
        if dropped:
            self.messages_dropped += 1
        elif on_delivered is not None:
            self.sim.schedule(deliver_at - now, on_delivered, payload)

    def delay_ms(self, src: str, dst: str, size_bytes: int = 256) -> float:
        """The wait (ms) until a ``size_bytes`` message reaches ``dst``.

        Process-style runtimes yield this float to 'travel' between
        servers — the kernel resumes them directly, no signal needed.
        Shares the egress link with :meth:`send`, so in-flight ordering
        between the two styles stays consistent.  With a fault filter
        installed, an unreachable pair raises :class:`DeliveryError`
        before any egress state is touched.
        """
        fault = self.fault
        if fault is not None:
            fault.check_hop(src, dst)  # raises DeliveryError
        now = self.sim.now
        record = self._egress.get(src)
        if record is None:
            record = self._egress_record(src)
        free = record[1]
        finish = (now if now > free else free) + size_bytes * record[0]
        record[1] = finish
        self.messages_sent += 1
        self.bytes_sent += size_bytes
        return finish + (self.same_host_ms if src == dst else self.lan_ms) - now
