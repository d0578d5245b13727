"""Deterministic discrete-event simulation substrate.

This subpackage replaces the paper's EC2 testbed: it models virtual
machines (:mod:`repro.sim.cluster`), the datacenter network
(:mod:`repro.sim.network`), and provides the process/scheduling kernel
(:mod:`repro.sim.kernel`) that every runtime in the repository runs on.
"""

from .cluster import (
    Cluster,
    InstanceType,
    INSTANCE_TYPES,
    M1_LARGE,
    M1_MEDIUM,
    M1_SMALL,
    M3_LARGE,
    Server,
)
from .kernel import Process, Signal, SimulationError, Simulator, Timeout
from .metrics import (
    LatencyRecorder,
    LatencySample,
    TimeSeries,
    mean,
    percentile,
)
from .network import DeliveryError, Message, Network
from .queues import Resource, Store
from .rng import RngRegistry

__all__ = [
    "Cluster",
    "DeliveryError",
    "InstanceType",
    "INSTANCE_TYPES",
    "LatencyRecorder",
    "LatencySample",
    "M1_LARGE",
    "M1_MEDIUM",
    "M1_SMALL",
    "M3_LARGE",
    "mean",
    "Message",
    "Network",
    "percentile",
    "Process",
    "Resource",
    "RngRegistry",
    "Server",
    "Signal",
    "SimulationError",
    "Simulator",
    "Store",
    "TimeSeries",
    "Timeout",
]
