"""Events, call descriptors and the yield protocol for method bodies.

AEON method bodies are written as Python generators.  A body interacts
with the runtime by yielding:

* a :class:`CallSpec` (obtained by calling a method on a
  :class:`~repro.core.context.ContextRef`) — a **synchronous** remote
  method call; the yield evaluates to the call's return value;
* :func:`async_` wrapping a CallSpec — an **asynchronous** call (the
  paper's ``async`` decoration); the event joins all asynchronous calls
  before completing;
* :func:`dispatch` wrapping a CallSpec — a **sub-event** (the paper's
  ``event`` decoration inside an event); it executes as a fresh event
  after the creator event finishes;
* :func:`compute` — occupy the hosting server's CPU for the given
  amount of unit work (models application compute);
* :func:`sleep` — wall-clock delay without occupying the CPU.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "AccessMode",
    "CallSpec",
    "AsyncCall",
    "SubEvent",
    "Compute",
    "Sleep",
    "Event",
    "async_",
    "dispatch",
    "compute",
    "sleep",
]


class AccessMode(enum.Enum):
    """Event access mode: read-only events share locks (read locks)."""

    RO = "ro"
    EX = "ex"


class CallSpec:
    """A method call on a context: target cid, method name, arguments.

    A plain slots class rather than a (frozen) dataclass: one CallSpec
    is built for every client operation and every nested call, and a
    frozen dataclass pays ``object.__setattr__`` per field.
    """

    __slots__ = ("target", "method", "args", "kwargs")

    def __init__(
        self,
        target: str,
        method: str,
        args: Tuple[Any, ...] = (),
        kwargs: Optional["Dict[str, Any]"] = None,
    ) -> None:
        self.target = target
        self.method = method
        self.args = args
        self.kwargs = kwargs if kwargs is not None else {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.target}.{self.method}(...)"


class AsyncCall:
    """Marker: execute ``spec`` asynchronously within the current event."""

    __slots__ = ("spec",)

    def __init__(self, spec: CallSpec) -> None:
        self.spec = spec


class SubEvent:
    """Marker: dispatch ``spec`` as a new event after the creator ends."""

    __slots__ = ("spec",)

    def __init__(self, spec: CallSpec) -> None:
        self.spec = spec


class Compute:
    """Marker: occupy the hosting server's CPU for ``work_ms`` unit work."""

    __slots__ = ("work_ms",)

    def __init__(self, work_ms: float) -> None:
        self.work_ms = work_ms


class Sleep:
    """Marker: wait ``delay_ms`` of wall-clock time without using CPU."""

    __slots__ = ("delay_ms",)

    def __init__(self, delay_ms: float) -> None:
        self.delay_ms = delay_ms


def async_(spec: CallSpec) -> AsyncCall:
    """Decorate a call as asynchronous (the paper's ``async x.g(...)``)."""
    if not isinstance(spec, CallSpec):
        raise TypeError(f"async_ expects a CallSpec, got {spec!r}")
    return AsyncCall(spec)


def dispatch(spec: CallSpec) -> SubEvent:
    """Dispatch a sub-event (the paper's ``event x.g(...)`` inside events)."""
    if not isinstance(spec, CallSpec):
        raise TypeError(f"dispatch expects a CallSpec, got {spec!r}")
    return SubEvent(spec)


def compute(work_ms: float) -> Compute:
    """Consume ``work_ms`` of unit CPU work on the hosting server."""
    return Compute(float(work_ms))


def sleep(delay_ms: float) -> Sleep:
    """Wait ``delay_ms`` without occupying a CPU core."""
    return Sleep(float(delay_ms))


class Event:
    """One client request being executed by a runtime.

    Mirrors the paper's Algorithm 1 data structure (eid, dominator,
    target, access mode) plus the bookkeeping this implementation needs:
    per-branch lock lists (for chain release), pending asynchronous call
    processes, deferred sub-events, and read/write sets for the
    serializability checker.
    """

    __slots__ = (
        "eid",
        "spec",
        "mode",
        "client",
        "tag",
        "dom",
        "submitted_ms",
        "started_ms",
        "committed_ms",
        "result",
        "error",
        "reads",
        "writes",
        "sub_events",
        "hops",
        "held",
        "open_branches",
        "quiescent",
        "deferred_locks",
    )

    def __init__(
        self,
        eid: int,
        spec: CallSpec,
        mode: AccessMode,
        client: str,
        submitted_ms: float,
        tag: str = "",
    ) -> None:
        self.eid = eid
        self.spec = spec
        self.mode = mode
        self.client = client
        self.tag = tag
        self.dom: Optional[str] = None
        self.submitted_ms = submitted_ms
        self.started_ms: Optional[float] = None
        self.committed_ms: Optional[float] = None
        self.result: Any = None
        self.error: Optional[BaseException] = None
        # cid -> version observed / produced (for the history checker).
        self.reads: Dict[str, int] = {}
        self.writes: Dict[str, int] = {}
        self.sub_events: List[CallSpec] = []
        self.hops = 0
        # Runtime lock bookkeeping, owned by RuntimeBase: the set of
        # held/reserved cids (None once the event finished), the count
        # of open branches, the quiescence signal and locks deferred to
        # commit.  Attributes here instead of eid-keyed dicts on the
        # runtime: they are touched on every lock operation.
        self.held: Optional[set] = set()
        self.open_branches = 1  # the root branch
        self.quiescent: Any = None
        self.deferred_locks: List[str] = []

    @property
    def target(self) -> str:
        """The context the event lands on."""
        return self.spec.target

    @property
    def readonly(self) -> bool:
        """Whether this is a read-only event."""
        return self.mode is AccessMode.RO

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Event {self.eid} {self.mode.value} {self.spec!r}>"
