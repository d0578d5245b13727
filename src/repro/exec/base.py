"""Cell primitives and the executor strategy interface.

A :class:`Cell` is one independent unit of an experiment grid — a
self-contained deterministic simulation described by a
``"module:function"`` dotted path plus picklable kwargs.  An
:class:`Executor` turns a stream of cells into a stream of
:class:`CellResult`\\ s; the three backends differ only in *where* the
cell bodies run:

* :class:`SerialExecutor` — lazily, in this process, at ``result()``
  time (the historical ``jobs=1`` path);
* :class:`ProcessExecutor` — on a local ``ProcessPoolExecutor``, with
  retry-on-worker-death: a ``BrokenProcessPool`` respawns the pool and
  re-submits every in-flight cell, bounded by ``max_respawns`` — a
  SIGKILLed worker costs one cell retry, never the run;
* :class:`~repro.exec.queue.QueueExecutor` — on independently-launched
  worker processes draining a shared spool directory (see
  :mod:`repro.exec.queue`).

Because cell bodies are deterministic functions of their kwargs (the
determinism contract, docs/ARCHITECTURE.md), every backend produces
byte-identical values and the caller reassembles them in cell order —
the backend choice can never change figure data.
"""

from __future__ import annotations

import importlib
import logging
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Cell",
    "CellResult",
    "execute_cell",
    "execute_cell_timed",
    "resolve_jobs",
    "ExecutorError",
    "WorkerLostError",
    "CellFailedError",
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "EXECUTORS",
    "EXECUTOR_ENV",
    "resolve_executor",
    "make_executor",
]

_log = logging.getLogger("repro.exec")

#: Environment default for the backend name (CLI ``--executor`` wins).
EXECUTOR_ENV = "REPRO_EXECUTOR"

#: The registered backend names (``"pool"`` and ``"queue"`` need jobs /
#: workers; ``"serial"`` is the in-process path).
EXECUTORS = ("serial", "pool", "queue")


# ----------------------------------------------------------------------
# Cell primitives (the harness re-exports these)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Cell:
    """One independent unit of an experiment grid.

    A cell is everything a worker process needs to run one
    self-contained simulation:

    * ``key`` — the cell's position in the figure assembly (e.g.
      ``("aeon", 8)`` for a scale-out curve point).  Only used by the
      enumerating figure function; opaque to the engine.
    * ``fn`` — the cell body as a ``"module:function"`` dotted path,
      resolved by :func:`execute_cell` *inside the worker*, so payloads
      stay picklable under fork, spawn and cross-process spool files.
    * ``kwargs`` — keyword arguments for ``fn``; must be picklable
      data (strings/numbers, or frozen spec dataclasses like
      :class:`~repro.harness.scenarios.ScenarioSpec`), typically
      ``system``/``scale``/``seed`` knobs plus the owning spec.

    The body must be deterministic given its kwargs (fresh
    :class:`~repro.sim.kernel.Simulator`, seeded
    :class:`~repro.sim.rng.RngRegistry`, no wall-clock reads) and return
    plain picklable data — that is what makes every executor backend
    byte-identical to the serial path.  See docs/ARCHITECTURE.md
    § Executors.
    """

    key: Tuple
    fn: str
    kwargs: Dict[str, Any]


@dataclass(frozen=True)
class CellResult:
    """The value one :class:`Cell` produced, tagged with its key."""

    key: Tuple
    value: Any


def execute_cell(cell: Cell) -> CellResult:
    """Run one cell (in this process) and wrap its return value.

    Resolves ``cell.fn``'s dotted ``"module:function"`` path via import,
    so it works identically in the parent process (serial path), in
    pool workers (parallel path) and in spool-queue workers.
    """
    module_name, _, fn_name = cell.fn.partition(":")
    fn = getattr(importlib.import_module(module_name), fn_name)
    return CellResult(key=cell.key, value=fn(**cell.kwargs))


def execute_cell_timed(cell: Cell) -> Tuple[CellResult, float]:
    """:func:`execute_cell` plus the cell's wall-clock milliseconds.

    The timing is store metadata only (it rides into the result-store
    manifest) — it never feeds back into a simulation, so determinism
    is untouched.  This is the worker payload whenever a
    :class:`~repro.results.ResultStore` is attached.
    """
    start = time.perf_counter()
    result = execute_cell(cell)
    return result, (time.perf_counter() - start) * 1000.0


def resolve_jobs(jobs: int) -> int:
    """Normalize a ``--jobs`` value: ``0`` means one per CPU core."""
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def persist_quietly(store: Any, cell: Cell, value: Any, wall_ms: float) -> None:
    """Persist one completed cell; storage trouble never fails a sweep."""
    try:
        store.put(cell, value, wall_ms=wall_ms)
    except Exception as error:
        _log.warning(
            "result store: failed to persist cell %r (%s: %s); continuing",
            cell.key,
            type(error).__name__,
            error,
        )


# ----------------------------------------------------------------------
# Errors
# ----------------------------------------------------------------------
class ExecutorError(RuntimeError):
    """A backend could not complete its cells (lost workers, failed cell)."""


class WorkerLostError(ExecutorError):
    """Worker death exhausted the retry budget; ``cells`` are the lost keys.

    Every cell completed *before* the loss is already persisted (when a
    result store is attached), so the run is resumable: rerun with the
    same store and only the lost cells recompute.
    """

    def __init__(self, message: str, cells: Sequence[Tuple] = ()) -> None:
        super().__init__(message)
        self.cells = tuple(cells)


class CellFailedError(ExecutorError):
    """A queue worker reported a cell-body exception (with its traceback)."""

    def __init__(self, message: str, key: Optional[Tuple] = None) -> None:
        super().__init__(message)
        self.key = key


# ----------------------------------------------------------------------
# The strategy interface
# ----------------------------------------------------------------------
class Executor:
    """Backend interface: ``submit`` cells, collect :class:`CellResult`\\ s.

    ``submit(cell)`` returns a *handle* — an object whose ``result()``
    blocks until the cell's :class:`CellResult` is available (raising
    :class:`ExecutorError` when the backend lost it for good) and whose
    ``done()`` reports readiness without blocking.  ``shutdown()``
    releases workers/spool state.  Callers collect handles in
    submission order — cell order is what makes assembled data
    byte-identical across backends.
    """

    def submit(self, cell: Cell) -> Any:
        raise NotImplementedError

    def shutdown(self, wait: bool = True) -> None:
        raise NotImplementedError

    def stats(self) -> Dict[str, Any]:
        """Backend counters for the CLI summary line (may be empty)."""
        return {}

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()


class _LazyHandle:
    """Serial-mode handle: runs its cell on first ``result()`` call.

    With a store attached, the freshly computed value is persisted
    immediately after execution — mid-``gather`` kills lose only the
    in-flight cell.
    """

    __slots__ = ("_cell", "_result", "_store")

    def __init__(self, cell: Cell, store: Any = None) -> None:
        self._cell = cell
        self._result: Optional[CellResult] = None
        self._store = store

    def done(self) -> bool:
        return self._result is not None

    def result(self) -> CellResult:
        if self._result is None:
            result, wall_ms = execute_cell_timed(self._cell)
            if self._store is not None:
                persist_quietly(self._store, self._cell, result.value, wall_ms)
            self._result = result
        return self._result


class SerialExecutor(Executor):
    """Lazy in-process execution — the historical ``jobs=1`` path.

    Cells run in submission order, in this process, when their handle's
    ``result()`` is first called (so a failing cell surfaces before
    later cells have burned any time).
    """

    def __init__(self, store: Any = None) -> None:
        self.store = store

    def submit(self, cell: Cell) -> _LazyHandle:
        return _LazyHandle(cell, self.store)

    def shutdown(self, wait: bool = True) -> None:
        pass


# ----------------------------------------------------------------------
# ProcessExecutor — the local pool, hardened
# ----------------------------------------------------------------------
class _PoolHandle:
    """Handle over a pool future that survives pool respawns."""

    __slots__ = ("cell", "future", "_executor")

    def __init__(self, executor: "ProcessExecutor", cell: Cell) -> None:
        self._executor = executor
        self.cell = cell
        self.future: Any = None

    def done(self) -> bool:
        future = self.future
        return (
            future is not None
            and future.done()
            and not isinstance(future.exception(), BrokenProcessPool)
        )

    def result(self) -> CellResult:
        return self._executor._result_of(self)


class ProcessExecutor(Executor):
    """A local ``ProcessPoolExecutor`` with retry-on-worker-death.

    A dead worker (OOM kill, SIGKILL, segfault) historically surfaced as
    a raw ``BrokenProcessPool`` that aborted the whole sweep.  Here the
    breakage is contained: the pool is respawned, every in-flight cell
    is re-submitted (cells are deterministic, so a re-run is invisible
    in the data), and only when ``max_respawns`` consecutive pool deaths
    are exhausted does a :class:`WorkerLostError` escape — naming the
    cells that were in flight, with every completed cell already
    persisted to the attached store (the run is resumable).

    Args: ``jobs`` worker processes (``0`` = one per core); ``store`` an
    optional :class:`~repro.results.ResultStore` each completed cell is
    persisted to; ``max_respawns`` the pool-respawn budget.
    """

    def __init__(
        self,
        jobs: int = 0,
        store: Any = None,
        max_respawns: int = 2,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self.store = store
        self.max_respawns = max_respawns
        self.respawns = 0
        self._pool: Optional[ProcessPoolExecutor] = ProcessPoolExecutor(
            max_workers=self.jobs
        )
        self._handles: List[_PoolHandle] = []
        self._lock = threading.Lock()
        self._dead: Optional[WorkerLostError] = None

    # -- submission -----------------------------------------------------
    def submit(self, cell: Cell) -> _PoolHandle:
        handle = _PoolHandle(self, cell)
        with self._lock:
            if self._dead is not None:
                raise self._dead
            self._start(handle)
            self._handles.append(handle)
        return handle

    def _start(self, handle: _PoolHandle) -> None:
        """(Re-)submit one handle's cell to the current pool."""
        if self.store is None:
            handle.future = self._pool.submit(execute_cell, handle.cell)
            return
        future = self._pool.submit(execute_cell_timed, handle.cell)

        def _on_done(f: Any, cell: Cell = handle.cell) -> None:
            if f.cancelled() or f.exception() is not None:
                return
            result, wall_ms = f.result()
            persist_quietly(self.store, cell, result.value, wall_ms)

        future.add_done_callback(_on_done)
        handle.future = future

    # -- collection -----------------------------------------------------
    def _result_of(self, handle: _PoolHandle) -> CellResult:
        while True:
            if self._dead is not None:
                raise self._dead
            future = handle.future
            try:
                value = future.result()
            except BrokenProcessPool:
                self._recover(handle)
                continue
            return value[0] if self.store is not None else value

    def _recover(self, handle: _PoolHandle) -> None:
        """Respawn the broken pool and re-submit every in-flight cell.

        All pending futures of a broken pool fail together, so many
        waiters may arrive here; the lock serializes them and the
        ``handle.future`` identity check makes exactly one perform the
        respawn — the rest find a fresh future already installed.
        """
        with self._lock:
            if self._dead is not None:
                raise self._dead
            future = handle.future
            if not (
                future.done()
                and isinstance(future.exception(), BrokenProcessPool)
            ):
                return  # another waiter already respawned for us
            inflight = [
                h
                for h in self._handles
                if not h.future.done()
                or isinstance(h.future.exception(), BrokenProcessPool)
            ]
            lost = [h.cell.key for h in inflight]
            if self.respawns >= self.max_respawns:
                self._dead = WorkerLostError(
                    f"worker death broke the process pool {self.respawns + 1} "
                    f"time(s); giving up on {len(lost)} in-flight cell(s): "
                    f"{', '.join(repr(k) for k in lost)}",
                    cells=lost,
                )
                self._pool.shutdown(wait=False, cancel_futures=True)
                raise self._dead
            self.respawns += 1
            _log.warning(
                "process pool broken (worker died); respawn %d/%d, "
                "re-submitting %d in-flight cell(s)",
                self.respawns,
                self.max_respawns,
                len(inflight),
            )
            old, self._pool = self._pool, ProcessPoolExecutor(max_workers=self.jobs)
            old.shutdown(wait=False)
            for h in inflight:
                self._start(h)

    def shutdown(self, wait: bool = True) -> None:
        """Join running cells, cancel queued ones (fail fast on error)."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=True)

    def stats(self) -> Dict[str, Any]:
        return {"respawns": self.respawns}


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------
def resolve_executor(name: Optional[str] = None, jobs: int = 1) -> str:
    """Fold an explicit name and ``REPRO_EXECUTOR`` into a backend name.

    Precedence: explicit ``name`` > the env var > jobs-based default
    (``serial`` for one job, ``pool`` otherwise).
    """
    chosen = name or os.environ.get(EXECUTOR_ENV) or None
    if chosen is None:
        return "serial" if resolve_jobs(jobs) == 1 else "pool"
    chosen = chosen.strip().lower()
    if chosen not in EXECUTORS:
        raise ValueError(
            f"unknown executor {chosen!r}; pick from {', '.join(EXECUTORS)}"
        )
    return chosen


def make_executor(
    executor: Any = None,
    jobs: int = 1,
    store: Any = None,
    queue_dir: Any = None,
    options: Optional[Dict[str, Any]] = None,
) -> Executor:
    """Build the backend for a run.

    ``executor`` is an :class:`Executor` instance (used as-is; ``jobs``
    and ``options`` are ignored), a backend name, or ``None`` (resolve
    via :func:`resolve_executor`; an explicit ``queue_dir`` implies the
    queue backend).  ``options`` are extra keyword arguments for the
    :class:`~repro.exec.queue.QueueExecutor` (``lease_timeout_s``,
    ``spawn_workers``, straggler knobs...).
    """
    if isinstance(executor, Executor):
        return executor
    if executor is None and queue_dir is not None:
        name = "queue"
    else:
        name = resolve_executor(executor, jobs)
    if name == "serial":
        return SerialExecutor(store=store)
    if name == "pool":
        return ProcessExecutor(jobs=jobs, store=store)
    from .queue import QueueExecutor  # local import: queue builds on base

    return QueueExecutor(queue_dir=queue_dir, store=store, **(options or {}))
