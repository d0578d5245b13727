"""Queue worker: drain a spool directory of cells::

    python -m repro.exec.worker --queue-dir .repro_queue

Launch as many as you like, on any machine sharing the filesystem —
each loops claim → execute → push-result until the queue coordinator
writes a ``STOP`` file (or ``--max-idle`` seconds pass with nothing to
claim, or ``--once`` after a single cell).  The spool protocol and the
lease/heartbeat/straggler semantics live in :mod:`repro.exec.queue`;
the experiment cells a coordinator publishes resolve their own bodies
by dotted path, so a worker needs nothing but this repository on its
``PYTHONPATH``.

A heartbeat file (pid, current cell key) is renewed every poll interval
— a background thread keeps renewing *during* a long cell, so a busy
worker is never mistaken for a dead one.  Results are pushed into the
coordinator's :class:`~repro.results.ResultStore` bus (location read
from the spool's ``QUEUE.json``); pushes are atomic and idempotent, so
a speculative duplicate attempt at worst overwrites an entry with the
identical bytes (first-result-wins).  A cell body that raises writes a
failure marker with the traceback instead — cells are deterministic,
so one failure is definitive and the coordinator stops waiting.
"""

from __future__ import annotations

import argparse
import logging
import os
import resource
import threading
import time
import traceback
from pathlib import Path
from typing import List, Optional

from ..results.store import ResultStore
from .base import execute_cell_timed
from .queue import (
    STOP_NAME,
    Task,
    claim,
    ensure_layout,
    read_config,
    worker_id,
    write_failure,
    write_heartbeat,
)

__all__ = ["run_worker", "main"]

_log = logging.getLogger("repro.exec.worker")


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


class _HeartbeatThread(threading.Thread):
    """Renew the worker heartbeat every ``interval`` while a cell runs."""

    def __init__(
        self, root: Path, worker: str, current: Optional[str], interval: float,
        seq_start: int,
    ) -> None:
        super().__init__(daemon=True)
        self.root = root
        self.worker = worker
        self.current = current
        self.interval = interval
        self.seq = seq_start
        # NB: not ``self._stop`` — that would shadow Thread._stop(),
        # which Thread.join() invokes internally.
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self.interval):
            self.seq += 1
            try:
                write_heartbeat(self.root, self.worker, self.current, self.seq)
            except OSError:
                pass  # transient FS trouble; the next renewal retries

    def stop(self) -> int:
        self._halt.set()
        self.join(timeout=5.0)
        return self.seq


def _open_bus(root: Path, store_dir: Optional[str], wait_s: float = 10.0) -> ResultStore:
    """The result bus: ``--store-dir`` or the coordinator's ``QUEUE.json``.

    A worker may legitimately start before any coordinator has written
    the config — wait briefly, then fall back to the spool-local
    default the coordinator would also pick.
    """
    if store_dir:
        return ResultStore(store_dir)
    deadline = time.monotonic() + wait_s
    while True:
        config = read_config(root)
        if config and config.get("store"):
            return ResultStore(config["store"])
        if time.monotonic() >= deadline:
            return ResultStore(root / "store")
        time.sleep(0.2)


def _run_task(root: Path, bus: ResultStore, worker: str, active_path: Path,
              task: Task, poll_interval_s: float, seq: int) -> int:
    """Execute one claimed task; returns the updated heartbeat seq."""
    write_heartbeat(root, worker, current=task.key, seq=seq)
    if bus.contains(task.key):
        # Another attempt already won (speculation / reclaim race):
        # drop the claim without burning the simulation time.
        active_path.unlink(missing_ok=True)
        return seq + 1
    beat = _HeartbeatThread(root, worker, task.key, poll_interval_s, seq)
    beat.start()
    try:
        result, wall_ms = execute_cell_timed(task.cell)
    except BaseException as error:
        write_failure(root, task.key, task.attempt, worker, error,
                      traceback.format_exc())
        _log.error("cell %s… attempt %d failed: %s",
                   task.key[:12], task.attempt, error)
    else:
        if not bus.contains(task.key):  # first-result-wins (advisory;
            bus.put(task.cell, result.value, wall_ms=wall_ms)  # puts are atomic)
    finally:
        seq = beat.stop() + 1
        active_path.unlink(missing_ok=True)
        write_heartbeat(root, worker, current=None, seq=seq)
    return seq


def run_worker(
    queue_dir: str,
    worker: Optional[str] = None,
    poll_interval_s: float = 0.5,
    max_idle_s: Optional[float] = None,
    store_dir: Optional[str] = None,
    once: bool = False,
    parent_pid: Optional[int] = None,
) -> int:
    """The worker loop (importable for in-process tests).

    Exits 0 on ``STOP``/``--max-idle``/``--once``/parent death; the
    number of cells executed and the worker's peak memory are logged.
    See the module docstring.
    """
    root = Path(queue_dir)
    ensure_layout(root)
    me = worker_id(worker)
    bus = _open_bus(root, store_dir)
    _log.info("worker %s draining %s (bus %s)", me, root, bus.root)
    seq = 0
    executed = 0
    write_heartbeat(root, me, current=None, seq=seq)
    idle_since = time.monotonic()
    try:
        while True:
            if (root / STOP_NAME).exists():
                _log.info("worker %s: STOP sentinel; exiting", me)
                break
            if parent_pid is not None and not _pid_alive(parent_pid):
                _log.info("worker %s: coordinator %d gone; exiting", me, parent_pid)
                break
            claimed = claim(root, me)
            if claimed is None:
                if (
                    max_idle_s is not None
                    and time.monotonic() - idle_since > max_idle_s
                ):
                    _log.info("worker %s: idle > %.1fs; exiting", me, max_idle_s)
                    break
                seq += 1
                write_heartbeat(root, me, current=None, seq=seq)
                time.sleep(poll_interval_s)
                continue
            active_path, task = claimed
            seq = _run_task(root, bus, me, active_path, task, poll_interval_s, seq)
            executed += 1
            idle_since = time.monotonic()
            if once:
                break
    finally:
        # A clean exit retires the heartbeat; a killed worker leaves a
        # stale one behind — exactly the signal lease expiry needs.
        (root / "heartbeats" / f"{me}.json").unlink(missing_ok=True)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KB on Linux
    _log.info("worker %s: executed %d cell(s), peak RSS %.1f MB", me, executed, peak_mb)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.exec.worker", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--queue-dir", required=True, metavar="PATH",
                        help="the spool directory to drain")
    parser.add_argument("--id", default=None, metavar="NAME",
                        help="worker identity (default: host-pid)")
    parser.add_argument("--poll-interval", type=float, default=0.5, metavar="S",
                        help="claim/heartbeat cadence in seconds (default 0.5)")
    parser.add_argument("--max-idle", type=float, default=None, metavar="S",
                        help="exit after this many seconds with nothing to claim")
    parser.add_argument("--store-dir", default=None, metavar="PATH",
                        help="result-bus store (default: the coordinator's "
                        "QUEUE.json, falling back to QUEUE_DIR/store)")
    parser.add_argument("--once", action="store_true",
                        help="exit after executing a single cell")
    parser.add_argument("--parent-pid", type=int, default=None, metavar="PID",
                        help="exit when this process disappears")
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    return run_worker(
        args.queue_dir,
        worker=args.id,
        poll_interval_s=args.poll_interval,
        max_idle_s=args.max_idle,
        store_dir=args.store_dir,
        once=args.once,
        parent_pid=args.parent_pid,
    )


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
