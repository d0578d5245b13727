"""AEON core: the programming model and the execution protocol.

Public surface:

* declare contextclasses by subclassing :class:`ContextClass`, with
  :class:`Ref`/:class:`RefSet` fields, ``@readonly`` and ``@cost``;
* write method bodies as generators yielding :class:`CallSpec` objects
  (synchronous calls), :func:`async_` (asynchronous calls),
  :func:`dispatch` (sub-events), :func:`compute` and :func:`sleep`;
* run them on :class:`AeonRuntime` over a simulated cluster.
"""

from .analysis import StaticAnalysis
from .context import (
    ContextClass,
    ContextRef,
    Ref,
    RefSet,
    cost,
    is_readonly,
    method_cost,
    readonly,
)
from .costs import CostModel, DEFAULT_COSTS
from .errors import (
    AeonError,
    MigrationError,
    OwnershipCycleError,
    OwnershipViolationError,
    ReadOnlyViolationError,
    RetryableError,
    StaticAnalysisError,
    UnknownContextError,
    is_retryable,
)
from .events import (
    AccessMode,
    AsyncCall,
    CallSpec,
    Compute,
    Event,
    Sleep,
    SubEvent,
    async_,
    compute,
    dispatch,
    sleep,
)
from .history import CommittedEvent, HistoryRecorder, SerializabilityViolation
from .locking import ContextLock
from .ownership import OwnershipNetwork, VIRTUAL_PREFIX
from .protocol import AeonRuntime
from .runtime import ClientHandle, RuntimeBase

__all__ = [
    "AccessMode",
    "AeonError",
    "AeonRuntime",
    "AsyncCall",
    "CallSpec",
    "ClientHandle",
    "CommittedEvent",
    "Compute",
    "ContextClass",
    "ContextLock",
    "ContextRef",
    "CostModel",
    "DEFAULT_COSTS",
    "Event",
    "HistoryRecorder",
    "MigrationError",
    "OwnershipCycleError",
    "OwnershipNetwork",
    "OwnershipViolationError",
    "ReadOnlyViolationError",
    "Ref",
    "RefSet",
    "RetryableError",
    "RuntimeBase",
    "SerializabilityViolation",
    "Sleep",
    "StaticAnalysis",
    "StaticAnalysisError",
    "SubEvent",
    "UnknownContextError",
    "VIRTUAL_PREFIX",
    "async_",
    "compute",
    "cost",
    "dispatch",
    "is_readonly",
    "is_retryable",
    "method_cost",
    "readonly",
    "sleep",
]
