"""Message transport between simulated endpoints.

Endpoints (servers, clients, the eManager) register a mailbox under a
name.  ``send`` delivers a payload after propagation latency plus
transmission time (size / sender NIC bandwidth).  Two properties matter
to the runtimes built on top:

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

Fault injection (:mod:`repro.faults`) plugs in through two hooks kept
deliberately cheap when unused:

* ``fault`` — an optional filter object consulted on every transmission.
  It is duck typed: ``check_hop(src, dst)`` raises
  :class:`DeliveryError` when a process-style hop cannot reach its
  destination (endpoint down, network partition); ``drops(src, dst)``
  says whether a fire-and-forget message is lost.  Process hops model
  TCP-like protocol channels (loss is a hard failure), messages model
  UDP-like traffic (heartbeats) that is silently lost.
* ``detach``/``reattach`` — take an endpoint's mailbox off the fabric
  without forgetting its registration (a crashed server that may
  restart), unlike :meth:`Network.unregister`.

With no fault filter installed every code path is byte-identical to the
fault-free transport.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from .cluster import InstanceType
from .kernel import Signal, Simulator
from .queues import Store

__all__ = ["Message", "Network", "DeliveryError"]


class DeliveryError(Exception):
    """A message could not reach its destination (crash or partition).

    Raised synchronously by :meth:`Network.delay_ms` /
    :meth:`Network.delay_signal` when an installed fault filter reports
    the (src, dst) pair unreachable.  Marked ``retryable``: the failure
    is transient — callers (clients) may resubmit once the fault heals.
    """

    retryable = True


@dataclass(frozen=True)
class Message:
    """A delivered payload with its envelope."""

    src: str
    dst: str
    payload: Any
    size_bytes: int
    sent_at_ms: float


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
        self._mailboxes: Dict[str, Store] = {}
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
        # Mailboxes of detached (crashed-but-restartable) endpoints.
        self._detached: Dict[str, Store] = {}

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
    def register(
        self,
        name: str,
        mailbox: Optional[Store] = None,
        itype: Optional[InstanceType] = None,
    ) -> Store:
        """Register an endpoint; returns its mailbox (created if absent)."""
        if name in self._mailboxes:
            raise ValueError(f"endpoint {name!r} already registered")
        box = mailbox if mailbox is not None else Store(self.sim, name=f"mbox:{name}")
        self._mailboxes[name] = box
        gbps = itype.nic_gbps if itype else self.default_gbps
        self._egress[name] = [_ms_per_byte(gbps), 0.0]
        return box

    def unregister(self, name: str) -> None:
        """Remove an endpoint (e.g. a decommissioned server)."""
        self._mailboxes.pop(name, None)
        self._egress.pop(name, None)
        self._detached.pop(name, None)

    def detach(self, name: str) -> None:
        """Take a crashed endpoint off the fabric, keeping its registration.

        Messages in flight to it are silently lost; new ``send``s are
        dropped by the fault filter (which tracks down endpoints); the
        mailbox is restored by :meth:`reattach` on restart.
        """
        box = self._mailboxes.pop(name, None)
        if box is not None:
            self._detached[name] = box

    def reattach(self, name: str) -> None:
        """Put a restarted endpoint's mailbox back on the fabric."""
        box = self._detached.pop(name, None)
        if box is not None and name not in self._mailboxes:
            self._mailboxes[name] = box

    def mailbox(self, name: str) -> Store:
        """The mailbox of a registered endpoint."""
        return self._mailboxes[name]

    def is_registered(self, name: str) -> bool:
        """Whether ``name`` is a known endpoint."""
        return name in self._mailboxes

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def send(
        self,
        src: str,
        dst: str,
        payload: Any,
        size_bytes: int = 256,
        on_delivered: Optional[Callable[[Message], None]] = None,
    ) -> None:
        """Deliver ``payload`` from ``src`` to ``dst``.

        Delivery time = egress queueing + size/bandwidth + propagation,
        which keeps per-(src, dst) FIFO order (see the module docstring).
        Unknown destinations raise ``KeyError`` immediately (the caller —
        e.g. a client with a stale context map — handles redirection at a
        higher layer); detached (crashed) destinations and fault-filter
        drops lose the message silently, like UDP — the sender still
        pays egress, so later messages queue behind the lost one.
        """
        dropped = dst in self._detached
        if not dropped and dst not in self._mailboxes:
            raise KeyError(f"unknown endpoint {dst!r}")
        fault = self.fault
        if fault is not None and not dropped:
            dropped = fault.drops(src, dst)
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
            return
        message = Message(src, dst, payload, size_bytes, now)

        def deliver() -> None:
            box = self._mailboxes.get(dst)
            if box is None:
                return  # endpoint vanished mid-flight (decommissioned)
            box.put(message)
            if on_delivered is not None:
                on_delivered(message)

        self.sim.schedule(deliver_at - now, deliver)

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

    def delay_signal(self, src: str, dst: str, size_bytes: int = 256) -> "Signal":
        """A signal firing when a message of ``size_bytes`` would arrive.

        Signal-object variant of :meth:`delay_ms`, for callers that need
        a waitable to combine or hand around.
        """
        signal = Signal(self.sim, "net")
        self.sim.schedule(self.delay_ms(src, dst, size_bytes), signal.succeed, None)
        return signal
