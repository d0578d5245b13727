"""The filesystem work queue: spool protocol + coordinating executor.

The queue turns a directory (default ``.repro_queue/``) into a shared
work queue any number of independently-launched worker processes drain
— same box or any box sharing the filesystem::

    # terminal 1: the coordinator publishes cells and collects results
    python -m repro.harness.experiments --all --scale quick --executor queue

    # terminals 2..N (or other machines): workers drain the spool
    python -m repro.exec.worker --queue-dir .repro_queue

Layout::

    .repro_queue/
        QUEUE.json            # coordinator config: result-bus dir, tag
        queue/
            <key>.<att>.task  # pending claimable tasks (pickled Cell)
        active/
            <key>.<att>.<worker>.task   # claimed (renamed by the worker)
        heartbeats/
            <worker>.json     # pid, current cell key, renewed each poll
        failed/
            <key>.<att>.json  # cell-body exception + remote traceback
        store/                # default result bus (ResultStore) when the
                              # coordinator has no shared --cache-dir

The protocol leans on two filesystem atomics only — ``os.rename`` for
claims (exactly one of N racing workers wins a task file) and the
result store's write-temp-then-rename for results — so it needs no
locks, no sockets and no coordinator liveness for workers to make
progress.

Robustness (see docs/ARCHITECTURE.md § Executors):

* **Heartbeats/leases** — each worker renews ``heartbeats/<id>.json``
  every poll interval (a background thread keeps renewing *during* a
  long cell).  The coordinator declares a claim dead when its worker's
  heartbeat is older than ``lease_timeout_s`` and renames the task back
  into ``queue/`` — a worker that dies mid-cell costs exactly that
  cell's retry, never the run.
* **Stragglers** — once enough cells have completed for a p90 estimate,
  a claim running past ``max(straggler_min_s, straggler_factor * p90)``
  is speculatively re-published as a new attempt; whichever attempt
  lands in the result bus first wins (store writes are atomic, and both
  attempts compute byte-identical values), the loser's write is a
  harmless same-bytes overwrite.
* **First-result-wins dedup** — attempts are keyed by the cell's
  content hash (:func:`repro.results.cell_key`), so duplicate and
  speculative attempts can never disagree or double-count.

Lease reclaims and speculative dispatches are recorded as event lines
in the result-bus manifest (``ResultStore.events()``) for post-mortem
accounting.
"""

from __future__ import annotations

import json
import logging
import os
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

# pickle, socket and subprocess are imported where the spool protocol and
# the coordinator use them, so importing repro.exec does not load them
# (docs/ARCHITECTURE.md, "What a process imports").

from ..results.store import MISS, ResultStore, STORE_TAG, cell_key
from .base import (
    Cell,
    CellFailedError,
    CellResult,
    Executor,
    ExecutorError,
)

__all__ = [
    "DEFAULT_QUEUE_DIR",
    "QUEUE_DIR_ENV",
    "CONFIG_NAME",
    "STOP_NAME",
    "Task",
    "worker_id",
    "publish",
    "claim",
    "requeue",
    "write_heartbeat",
    "read_heartbeat",
    "write_failure",
    "read_failure",
    "read_config",
    "write_config",
    "QueueExecutor",
]

_log = logging.getLogger("repro.exec.queue")

#: Default spool directory (relative to the invocation's CWD).
DEFAULT_QUEUE_DIR = ".repro_queue"

#: Environment override for the spool directory.
QUEUE_DIR_ENV = "REPRO_QUEUE_DIR"

CONFIG_NAME = "QUEUE.json"

#: Sentinel file: workers exit when they see it (coordinator-written).
STOP_NAME = "STOP"

_TASK_SUFFIX = ".task"


# ----------------------------------------------------------------------
# Spool-file protocol (shared by coordinator and workers)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Task:
    """One claimable attempt at a cell, as pickled into a task file."""

    key: str  # content hash (repro.results.cell_key)
    attempt: int
    cell: Cell


def _queue_dir(root: Path) -> Path:
    return root / "queue"


def _active_dir(root: Path) -> Path:
    return root / "active"


def _heartbeat_dir(root: Path) -> Path:
    return root / "heartbeats"


def _failed_dir(root: Path) -> Path:
    return root / "failed"


def ensure_layout(root: Path) -> None:
    for sub in (_queue_dir(root), _active_dir(root), _heartbeat_dir(root),
                _failed_dir(root)):
        sub.mkdir(parents=True, exist_ok=True)


def worker_id(base: Optional[str] = None) -> str:
    """A filesystem-safe worker identity (default ``host-pid``)."""
    import socket

    raw = base or f"{socket.gethostname()}-{os.getpid()}"
    return re.sub(r"[^A-Za-z0-9_-]", "_", raw)


def _task_name(key: str, attempt: int) -> str:
    return f"{key}.{attempt:03d}{_TASK_SUFFIX}"


def _parse_active_name(name: str) -> Tuple[str, int, str]:
    """``<key>.<att>.<worker>.task`` -> (key, attempt, worker)."""
    stem = name[: -len(_TASK_SUFFIX)]
    key, _, rest = stem.partition(".")
    attempt, _, worker = rest.partition(".")
    return key, int(attempt), worker


def _atomic_write(path: Path, data: bytes) -> None:
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def publish(root: Path, cell: Cell, key: str, attempt: int = 0) -> Path:
    """Atomically publish one claimable attempt into ``queue/``."""
    import pickle

    ensure_layout(root)
    path = _queue_dir(root) / _task_name(key, attempt)
    _atomic_write(path, pickle.dumps(Task(key, attempt, cell)))
    return path


def claim(root: Path, worker: str) -> Optional[Tuple[Path, Task]]:
    """Claim the oldest pending task by renaming it into ``active/``.

    ``os.rename`` is the atomicity primitive: of N workers racing for
    one task file exactly one rename succeeds; the rest see ``ENOENT``
    and move on.  Returns ``(active_path, task)`` or ``None`` when the
    queue is empty.  An unreadable task file (torn publish from a
    killed coordinator) is discarded.
    """
    import pickle

    try:
        names = sorted(os.listdir(_queue_dir(root)))
    except FileNotFoundError:
        return None
    for name in names:
        if not name.endswith(_TASK_SUFFIX) or ".tmp" in name:
            continue
        source = _queue_dir(root) / name
        target = _active_dir(root) / f"{name[: -len(_TASK_SUFFIX)]}.{worker}{_TASK_SUFFIX}"
        try:
            os.rename(source, target)
        except OSError:
            continue  # lost the race (or the file vanished)
        try:
            task = pickle.loads(target.read_bytes())
        except Exception:
            _log.warning("queue: discarding unreadable task file %s", name)
            target.unlink(missing_ok=True)
            continue
        return target, task
    return None


def requeue(root: Path, active_path: Path) -> bool:
    """Return a claimed task to ``queue/`` (lease expiry); False if gone."""
    key, attempt, _worker = _parse_active_name(active_path.name)
    try:
        os.rename(active_path, _queue_dir(root) / _task_name(key, attempt))
    except OSError:
        return False  # the worker finished (or another reclaim won)
    return True


def write_heartbeat(
    root: Path, worker: str, current: Optional[str] = None, seq: int = 0
) -> None:
    """Renew ``worker``'s heartbeat (pid, current cell key, wall time)."""
    payload = {
        "worker": worker,
        "pid": os.getpid(),
        "current": current,
        "seq": seq,
        "time": time.time(),
    }
    _atomic_write(
        _heartbeat_dir(root) / f"{worker}.json",
        json.dumps(payload, sort_keys=True).encode("utf-8"),
    )


def read_heartbeat(root: Path, worker: str) -> Optional[Dict[str, Any]]:
    try:
        return json.loads(
            (_heartbeat_dir(root) / f"{worker}.json").read_text(encoding="utf-8")
        )
    except (OSError, ValueError):
        return None


def write_failure(
    root: Path, key: str, attempt: int, worker: str, error: BaseException,
    traceback_text: str,
) -> None:
    """Record a cell-body exception (cells are deterministic — one
    failure marker is definitive, retrying elsewhere cannot help)."""
    payload = {
        "key": key,
        "attempt": attempt,
        "worker": worker,
        "error": f"{type(error).__name__}: {error}",
        "traceback": traceback_text,
        "time": time.time(),
    }
    _atomic_write(
        _failed_dir(root) / f"{key}.{attempt:03d}.json",
        json.dumps(payload, sort_keys=True).encode("utf-8"),
    )


def read_failure(root: Path, key: str) -> Optional[Dict[str, Any]]:
    for path in sorted(_failed_dir(root).glob(f"{key}.*.json")):
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
    return None


def write_config(root: Path, store_dir: Path) -> None:
    """Advertise the result-bus location + store tag to workers."""
    payload = {
        "store": str(store_dir),
        "tag": STORE_TAG,
        "coordinator_pid": os.getpid(),
        "time": time.time(),
    }
    _atomic_write(
        root / CONFIG_NAME, json.dumps(payload, sort_keys=True).encode("utf-8")
    )


def read_config(root: Path) -> Optional[Dict[str, Any]]:
    try:
        return json.loads((root / CONFIG_NAME).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


# ----------------------------------------------------------------------
# The coordinating executor
# ----------------------------------------------------------------------
class _QueueHandle:
    """Handle over one outstanding queue cell."""

    __slots__ = ("cell", "key", "_executor", "_result", "_error")

    def __init__(self, executor: "QueueExecutor", cell: Cell, key: str) -> None:
        self._executor = executor
        self.cell = cell
        self.key = key
        self._result: Optional[CellResult] = None
        self._error: Optional[ExecutorError] = None

    def done(self) -> bool:
        return self._result is not None or self._error is not None

    def result(self) -> CellResult:
        return self._executor._result_of(self)

    def _finish(self) -> CellResult:
        if self._error is not None:
            raise self._error
        return self._result


class QueueExecutor(Executor):
    """Coordinator for the spool-directory work queue.

    ``submit`` publishes each cell as a claim file under
    ``queue_dir/queue/``; any number of ``python -m repro.exec.worker``
    processes sharing the filesystem claim, execute and push results
    into the shared :class:`~repro.results.ResultStore` bus, which the
    coordinator polls.  See the module docstring for the protocol and
    failure semantics.

    Args: ``queue_dir`` the spool directory (default ``.repro_queue`` or
    ``$REPRO_QUEUE_DIR``); ``store`` a shared result store to use as the
    bus (e.g. the run's cache store — default: a private store under
    ``queue_dir/store``); ``lease_timeout_s`` how stale a worker
    heartbeat may grow before its claim is re-queued;
    ``poll_interval_s`` the coordinator/worker poll cadence;
    ``straggler_factor``/``straggler_min_s``/``straggler_min_samples``
    the speculative re-dispatch policy (deadline = ``max(min_s, factor
    * p90 of completed cell durations)`` once ``min_samples`` cells have
    completed); ``max_attempts`` the total attempt cap per cell;
    ``spawn_workers`` launches that many local worker subprocesses for
    self-contained runs (external workers can still join).
    """

    def __init__(
        self,
        queue_dir: Any = None,
        store: Optional[ResultStore] = None,
        lease_timeout_s: float = 30.0,
        poll_interval_s: float = 0.2,
        straggler_factor: float = 3.0,
        straggler_min_s: float = 10.0,
        straggler_min_samples: int = 5,
        max_attempts: int = 4,
        spawn_workers: int = 0,
    ) -> None:
        self.root = Path(
            queue_dir or os.environ.get(QUEUE_DIR_ENV) or DEFAULT_QUEUE_DIR
        )
        self.lease_timeout_s = float(lease_timeout_s)
        self.poll_interval_s = float(poll_interval_s)
        self.straggler_factor = float(straggler_factor)
        self.straggler_min_s = float(straggler_min_s)
        self.straggler_min_samples = int(straggler_min_samples)
        self.max_attempts = int(max_attempts)
        ensure_layout(self.root)
        (self.root / STOP_NAME).unlink(missing_ok=True)
        self._since = time.time()  # wall clock, as heartbeats carry it
        # The result bus.  A shared cache store doubles as the bus; its
        # --refresh semantics live in `load`, which we bypass: `fetch`
        # reads by raw key without touching hit/miss accounting, and
        # under refresh the coordinator discards stale entries at
        # submit time so a pre-existing result can't short-circuit the
        # recompute.  A private bus (no store: the run has no cache) is
        # a transport, not a cache — a result an earlier run left in it
        # must not stand in for this run's computation.
        self._refresh = store is None or store.refresh
        self.bus = store if store is not None else ResultStore(self.root / "store")
        write_config(self.root, self.bus.root)
        self.reclaims = 0
        self.speculations = 0
        self.completed_cells = 0
        self._outstanding: Dict[str, _QueueHandle] = {}
        self._attempts: Dict[str, int] = {}
        self._submitted_at: Dict[str, float] = {}
        self._claims: Dict[str, Tuple[str, float]] = {}  # key -> (worker, since)
        self._durations: List[float] = []
        self._spawned: List[Any] = []
        for _ in range(int(spawn_workers)):
            self._spawned.append(self._spawn_worker())

    def _spawn_worker(self) -> Any:
        """Launch one local worker subprocess bound to this coordinator."""
        import subprocess

        import repro

        env = dict(os.environ)
        pkg_root = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (pkg_root, env.get("PYTHONPATH")) if p
        )
        return subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.exec.worker",
                "--queue-dir",
                str(self.root),
                "--poll-interval",
                str(self.poll_interval_s),
                "--parent-pid",
                str(os.getpid()),
            ],
            env=env,
        )

    # -- submission -----------------------------------------------------
    def submit(self, cell: Cell) -> _QueueHandle:
        key = cell_key(cell)
        handle = self._outstanding.get(key)
        if handle is not None:
            return handle  # same-content cell: one spool entry serves both
        handle = _QueueHandle(self, cell, key)
        if self._refresh:
            self.bus.discard(key)
        else:
            value = self.bus.fetch(key)
            if value is not MISS:
                # A previous run (or another coordinator) already
                # computed this cell — resume without dispatching.
                handle._result = CellResult(key=cell.key, value=value)
                return handle
        publish(self.root, cell, key, attempt=0)
        self._attempts[key] = 0
        self._submitted_at[key] = time.monotonic()
        self._outstanding[key] = handle
        return handle

    # -- collection -----------------------------------------------------
    def _result_of(self, handle: _QueueHandle) -> CellResult:
        while not handle.done():
            if not self._service():
                time.sleep(self.poll_interval_s)
        return handle._finish()

    def _service(self) -> bool:
        """One coordinator pass: collect, police leases, speculate.

        Returns True when any cell completed (progress — skip the poll
        sleep and immediately look again).
        """
        progressed = self._collect()
        self._check_leases()
        self._check_stragglers()
        return progressed

    def _collect(self) -> bool:
        progressed = False
        for key, handle in list(self._outstanding.items()):
            if self.bus.contains(key):
                value = self.bus.fetch(key)
                if value is MISS:
                    continue  # torn entry; the next pass re-reads
                handle._result = CellResult(key=handle.cell.key, value=value)
                self._complete(key)
                progressed = True
                continue
            failure = read_failure(self.root, key)
            if failure is not None:
                handle._error = CellFailedError(
                    f"cell {handle.cell.key!r} raised in worker "
                    f"{failure.get('worker')}: {failure.get('error')}\n"
                    f"{failure.get('traceback', '')}",
                    key=handle.cell.key,
                )
                self._complete(key)
                progressed = True
        return progressed

    def _complete(self, key: str) -> None:
        claimed = self._claims.pop(key, None)
        started = claimed[1] if claimed else self._submitted_at.get(key)
        if started is not None:
            self._durations.append(time.monotonic() - started)
        self._outstanding.pop(key, None)
        self._submitted_at.pop(key, None)
        self.completed_cells += 1
        # Sweep leftover attempts (a speculative loser, a stale claim).
        for path in _queue_dir(self.root).glob(f"{key}.*{_TASK_SUFFIX}"):
            path.unlink(missing_ok=True)

    def _check_leases(self) -> None:
        """Re-queue claims whose worker heartbeat has gone stale."""
        now_wall = time.time()
        now = time.monotonic()
        try:
            names = os.listdir(_active_dir(self.root))
        except FileNotFoundError:
            return
        for name in sorted(names):
            if not name.endswith(_TASK_SUFFIX) or ".tmp" in name:
                continue
            try:
                key, _attempt, worker = _parse_active_name(name)
            except ValueError:
                continue
            if key not in self._outstanding:
                # Completed (or foreign) leftover; sweep our own.
                if key not in self._claims:
                    (_active_dir(self.root) / name).unlink(missing_ok=True)
                continue
            claimed = self._claims.get(key)
            if claimed is None or claimed[0] != worker:
                self._claims[key] = (worker, now)
                claimed = self._claims[key]
            heartbeat = read_heartbeat(self.root, worker)
            beat_fresh = (
                heartbeat is not None
                and now_wall - float(heartbeat.get("time", 0.0)) <= self.lease_timeout_s
            )
            claim_age = now - claimed[1]
            if beat_fresh or claim_age <= self.lease_timeout_s:
                continue
            if requeue(self.root, _active_dir(self.root) / name):
                self.reclaims += 1
                self._claims.pop(key, None)
                self._note(
                    "lease_reclaimed", key,
                    worker=worker, claim_age_s=round(claim_age, 3),
                )
                _log.warning(
                    "queue: worker %s lease expired (%.1fs); re-queued cell %s…",
                    worker, claim_age, key[:12],
                )

    def _check_stragglers(self) -> None:
        """Speculatively re-publish claims running far past the p90."""
        if len(self._durations) < max(1, self.straggler_min_samples):
            return
        ordered = sorted(self._durations)
        p90 = ordered[int(0.9 * (len(ordered) - 1))]
        deadline = max(self.straggler_min_s, self.straggler_factor * p90)
        now = time.monotonic()
        for key, (worker, since) in list(self._claims.items()):
            if key not in self._outstanding or now - since <= deadline:
                continue
            attempt = self._attempts.get(key, 0)
            if attempt + 1 >= self.max_attempts:
                continue
            if any(_queue_dir(self.root).glob(f"{key}.*{_TASK_SUFFIX}")):
                continue  # an attempt is already waiting for a claimant
            self._attempts[key] = attempt + 1
            publish(self.root, self._outstanding[key].cell, key, attempt + 1)
            self.speculations += 1
            self._note(
                "speculative_dispatch", key,
                worker=worker, attempt=attempt + 1,
                running_s=round(now - since, 3), deadline_s=round(deadline, 3),
            )
            _log.warning(
                "queue: cell %s… running %.1fs (deadline %.1fs on %s); "
                "speculatively re-dispatched as attempt %d",
                key[:12], now - since, deadline, worker, attempt + 1,
            )

    def _note(self, event: str, key: str, **fields: Any) -> None:
        try:
            self.bus.note({"event": event, "cell_key": key, **fields})
        except Exception:  # accounting must never fail the run
            _log.debug("queue: failed to record %s event", event, exc_info=True)

    # -- lifecycle ------------------------------------------------------
    def workers_seen(self) -> List[str]:
        """Worker ids whose heartbeat in this spool is no older than this
        coordinator (a killed worker of an earlier run leaves its file)."""
        try:
            names = sorted(p.stem for p in _heartbeat_dir(self.root).glob("*.json"))
        except OSError:
            return []
        return [
            name for name in names
            if float((read_heartbeat(self.root, name) or {}).get("time", 0.0))
            >= self._since
        ]

    def shutdown(self, wait: bool = True) -> None:
        """Withdraw pending tasks and stop workers this coordinator spawned.

        Externally-launched workers are left running (they idle on an
        empty queue or exit on their ``--max-idle``); a ``STOP`` file is
        written so drained workers exit promptly.
        """
        import subprocess

        for key in list(self._outstanding):
            for path in _queue_dir(self.root).glob(f"{key}.*{_TASK_SUFFIX}"):
                path.unlink(missing_ok=True)
        try:
            (self.root / STOP_NAME).write_text("stopped by coordinator\n")
        except OSError:
            pass
        for proc in self._spawned:
            if proc.poll() is None:
                proc.terminate()
        if wait:
            for proc in self._spawned:
                try:
                    proc.wait(timeout=10.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=10.0)
        self._spawned.clear()

    def stats(self) -> Dict[str, Any]:
        return {
            "completed": self.completed_cells,
            "reclaims": self.reclaims,
            "speculations": self.speculations,
            "workers": len(self.workers_seen()),
        }
