"""Elasticity: the eManager, migration protocol, policies, snapshots."""

from .emanager import EManager
from .migration import MigrationCoordinator, MigrationRecord
from .policies import (
    Action,
    ClusterSnapshot,
    MigrateAction,
    ScaleInAction,
    ScaleOutAction,
    ServerReport,
    SLAPolicy,
)
from .snapshot import (
    Checkpointer,
    DeltaCheckpointer,
    read_checkpoint,
    snapshot_context,
)
from .storage import CloudStorage

__all__ = [
    "Action",
    "Checkpointer",
    "CloudStorage",
    "DeltaCheckpointer",
    "ClusterSnapshot",
    "EManager",
    "MigrateAction",
    "MigrationCoordinator",
    "MigrationRecord",
    "ScaleInAction",
    "ScaleOutAction",
    "ServerReport",
    "SLAPolicy",
    "read_checkpoint",
    "snapshot_context",
]
