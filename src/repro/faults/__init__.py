"""Fault injection and failure detection (the §5.3 dependability story).

This subpackage is the repository's first whose job is to *break* the
others: deterministic fault schedules (:mod:`repro.faults.schedule`),
an injector applying them on the simulator clock
(:mod:`repro.faults.injector`), and a heartbeat/lease failure detector
(:mod:`repro.faults.detector`).  Crash *recovery* — re-placing lost
contexts from their last cloud-storage checkpoint — lives with the
eManager (:meth:`repro.elasticity.EManager.enable_fault_tolerance`),
which the paper makes responsible for the context mapping.
"""

from .detector import Detection, FailureDetector
from .injector import FaultInjector, NetworkFaults
from .schedule import (
    FaultEvent,
    FaultSchedule,
    NetworkPartition,
    ServerCrash,
    random_churn,
)

__all__ = [
    "Detection",
    "FailureDetector",
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
    "NetworkFaults",
    "NetworkPartition",
    "ServerCrash",
    "random_churn",
]
