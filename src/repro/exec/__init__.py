"""``repro.exec`` — pluggable executor backends for the cell engine.

Cell execution is a *strategy*: every backend implements the
:class:`~repro.exec.base.Executor` interface (``submit(cell) -> handle``,
``shutdown()``) and the harness picks one per run
(``--executor serial|pool|queue`` or ``REPRO_EXECUTOR``):

* :class:`~repro.exec.base.SerialExecutor` — lazy in-process execution,
  the historical ``jobs=1`` path;
* :class:`~repro.exec.base.ProcessExecutor` — a local
  ``ProcessPoolExecutor`` hardened with retry-on-worker-death (respawn
  the pool, re-submit in-flight cells, bounded retries);
* :class:`~repro.exec.queue.QueueExecutor` — a filesystem work queue
  under a spool directory that any number of independently-launched
  ``python -m repro.exec.worker`` processes (same box or any box
  sharing the filesystem) drain concurrently, with worker heartbeats,
  lease-expiry re-queue and p90-based speculative straggler
  re-dispatch; results flow back through the
  :class:`~repro.results.ResultStore` result bus.

This package also owns the cell primitives themselves
(:class:`~repro.exec.base.Cell`, :func:`~repro.exec.base.execute_cell`)
— the harness layers on top.  See docs/ARCHITECTURE.md § Executors.
"""

from .base import (
    Cell,
    CellFailedError,
    CellResult,
    EXECUTOR_ENV,
    EXECUTORS,
    Executor,
    ExecutorError,
    ProcessExecutor,
    SerialExecutor,
    WorkerLostError,
    execute_cell,
    execute_cell_timed,
    make_executor,
    resolve_executor,
    resolve_jobs,
)
from .queue import DEFAULT_QUEUE_DIR, QUEUE_DIR_ENV, QueueExecutor

__all__ = [
    "Cell",
    "CellResult",
    "execute_cell",
    "execute_cell_timed",
    "resolve_jobs",
    "Executor",
    "ExecutorError",
    "WorkerLostError",
    "CellFailedError",
    "SerialExecutor",
    "ProcessExecutor",
    "QueueExecutor",
    "EXECUTORS",
    "EXECUTOR_ENV",
    "DEFAULT_QUEUE_DIR",
    "QUEUE_DIR_ENV",
    "resolve_executor",
    "make_executor",
]
