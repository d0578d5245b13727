"""The filesystem work queue: spool protocol, leases, stragglers, workers.

Three layers (docs/ARCHITECTURE.md § Executors):

* protocol units — ``os.rename`` claims are exactly-once, heartbeats and
  failure markers round-trip;
* coordinator policy, driven in-process with hand-played worker moves —
  a stale heartbeat expires the lease and re-queues the claimed cell, a
  cell running past the p90 deadline is speculatively re-published, the
  first result wins;
* real worker subprocesses — two workers drain the cold cells of real
  figure sweeps (the rest resume from the result bus) to byte-identical
  golden data, and a SIGKILLed worker's leased cell is re-dispatched so
  the run still completes.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.exec import CellFailedError, QueueExecutor
from repro.exec import queue as q
from conftest import GOLDEN, dump
from repro.exec.base import Cell
from repro.exec.worker import run_worker
from repro.harness.runner import CellPool
from repro.harness.scenarios import assemble_scenario, expand, prepare_scenario
from repro.results.store import ResultStore, cell_key

_HERE = Path(__file__).parent


def _cell(x):
    return Cell((x,), "exec_cells:echo", {"x": x})


def _spawn_worker(queue_dir, name, poll="0.05"):
    """A real worker subprocess, able to import repro and exec_cells."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p
        for p in (str(_HERE.parent / "src"), str(_HERE), env.get("PYTHONPATH"))
        if p
    )
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.exec.worker",
            "--queue-dir", str(queue_dir), "--id", name,
            "--poll-interval", poll,
        ],
        env=env,
    )


# ----------------------------------------------------------------------
# Spool protocol units
# ----------------------------------------------------------------------
def test_claim_is_exactly_once_and_requeueable(tmp_path):
    cell = _cell(1)
    key = cell_key(cell)
    q.publish(tmp_path, cell, key)
    first = q.claim(tmp_path, "w1")
    assert q.claim(tmp_path, "w2") is None  # w1's rename won the only task
    active_path, task = first
    assert task == q.Task(key, 0, cell)
    assert active_path.name == f"{key}.000.w1.task"
    # lease expiry returns it to the queue; the next claimant wins it
    assert q.requeue(tmp_path, active_path)
    assert q.claim(tmp_path, "w2")[1].key == key
    assert not q.requeue(tmp_path, active_path)  # already re-claimed


def test_heartbeat_and_failure_marker_roundtrip(tmp_path):
    q.ensure_layout(tmp_path)
    q.write_heartbeat(tmp_path, "w1", current="abc", seq=7)
    beat = q.read_heartbeat(tmp_path, "w1")
    assert beat["current"] == "abc"
    assert beat["seq"] == 7
    assert beat["pid"] == os.getpid()
    assert q.read_heartbeat(tmp_path, "ghost") is None
    q.write_failure(tmp_path, "k" * 64, 1, "w1", RuntimeError("boom"), "tb-text")
    failure = q.read_failure(tmp_path, "k" * 64)
    assert failure["error"] == "RuntimeError: boom"
    assert failure["traceback"] == "tb-text"
    assert failure["worker"] == "w1"


def test_worker_id_is_filesystem_safe():
    assert q.worker_id("node/1:two") == "node_1_two"
    assert q.worker_id()  # host-pid default is non-empty


# ----------------------------------------------------------------------
# Coordinator policy (hand-played workers)
# ----------------------------------------------------------------------
def test_stale_lease_is_reclaimed_and_rerun(tmp_path):
    ex = QueueExecutor(
        queue_dir=tmp_path, lease_timeout_s=0.3, poll_interval_s=0.02
    )
    try:
        handle = ex.submit(_cell(5))
        # A doomed worker claims the cell, heartbeats once, then "dies"
        # (stops renewing) — its heartbeat goes stale.
        active, task = q.claim(tmp_path, "doomed")
        q.write_heartbeat(tmp_path, "doomed", current=task.key, seq=0)
        deadline = time.monotonic() + 10
        while ex.reclaims == 0 and time.monotonic() < deadline:
            ex._service()
            time.sleep(0.02)
        assert ex.reclaims == 1
        # the reclaimed attempt is claimable again; a live worker runs it
        active2, task2 = q.claim(tmp_path, "live")
        assert task2.key == task.key
        ex.bus.put(task2.cell, 5, wall_ms=1.0)
        active2.unlink()
        assert handle.result().value == 5
        assert ex.stats()["reclaims"] == 1
        assert "lease_reclaimed" in [e["event"] for e in ex.bus.events()]
    finally:
        ex.shutdown()


def test_straggler_speculation_first_result_wins(tmp_path):
    ex = QueueExecutor(
        queue_dir=tmp_path, poll_interval_s=0.02, lease_timeout_s=60.0,
        straggler_factor=1.5, straggler_min_s=0.2, straggler_min_samples=2,
        max_attempts=3,
    )
    try:
        handles = [ex.submit(_cell(x)) for x in (1, 2, 99)]
        slow_key = cell_key(_cell(99))
        # a worker drains the two fast cells promptly (claims come back
        # in content-hash order, so fish the slow one out by kwargs)...
        held = None
        for _ in range(3):
            active, task = q.claim(tmp_path, "w1")
            q.write_heartbeat(tmp_path, "w1", current=task.key)
            if task.cell.kwargs["x"] == 99:
                held = (active, task)
                continue
            ex.bus.put(task.cell, task.cell.kwargs["x"], wall_ms=1.0)
            active.unlink()
        # ...then sits on the slow cell far past the p90 deadline, alive
        # (fresh heartbeats) but slow — a lease reclaim would be wrong.
        active, task = held
        assert task.key == slow_key
        deadline = time.monotonic() + 10
        while ex.speculations == 0 and time.monotonic() < deadline:
            q.write_heartbeat(tmp_path, "w1", current=task.key)
            ex._service()
            time.sleep(0.02)
        assert ex.speculations == 1
        assert ex.reclaims == 0
        spec_active, spec_task = q.claim(tmp_path, "w2")
        assert spec_task.key == slow_key
        assert spec_task.attempt == 1
        # the speculative attempt lands first and wins
        ex.bus.put(spec_task.cell, 99, wall_ms=1.0)
        spec_active.unlink()
        assert [h.result().value for h in handles] == [1, 2, 99]
        assert any(
            e["event"] == "speculative_dispatch" for e in ex.bus.events()
        )
    finally:
        ex.shutdown()


def test_worker_skips_already_computed_cell(tmp_path):
    # The cell body raises if executed: the pre-existing bus entry must
    # short-circuit the duplicate attempt (first-result-wins), so a
    # clean exit with no failure marker proves it never ran.
    cell = Cell(("x",), "exec_cells:explode", {})
    key = cell_key(cell)
    bus = ResultStore(tmp_path / "store")
    bus.put(cell, "winner", wall_ms=1.0)
    q.publish(tmp_path, cell, key)
    q.write_config(tmp_path, bus.root)
    assert run_worker(tmp_path, worker="w1", poll_interval_s=0.01,
                      max_idle_s=0.1) == 0
    assert q.read_failure(tmp_path, key) is None
    assert bus.fetch(key) == "winner"


def test_cell_failure_reaches_coordinator_with_traceback(tmp_path):
    ex = QueueExecutor(queue_dir=tmp_path, poll_interval_s=0.02)
    try:
        handle = ex.submit(
            Cell(("x",), "exec_cells:explode", {"message": "kaboom"})
        )
        assert run_worker(tmp_path, worker="w1", poll_interval_s=0.01,
                          max_idle_s=0.2) == 0
        with pytest.raises(CellFailedError, match="kaboom"):
            handle.result()
    finally:
        ex.shutdown()


def test_worker_count_ignores_heartbeats_of_earlier_runs(tmp_path):
    # A heartbeat an earlier run left in the spool (a killed worker's)
    # is not one of this run's workers.
    q.ensure_layout(tmp_path)
    stale = {"worker": "old", "pid": 1, "current": None, "seq": 3,
             "time": time.time() - 3600.0}
    (tmp_path / "heartbeats" / "old.json").write_text(json.dumps(stale))
    ex = QueueExecutor(queue_dir=tmp_path, poll_interval_s=0.02)
    worker = _spawn_worker(tmp_path, "w1")
    try:
        assert ex.submit(_cell(4)).result().value == 4
        assert ex.stats()["workers"] == 1
    finally:
        ex.shutdown()
        worker.wait(timeout=10)


def test_coordinator_resumes_from_bus_without_dispatch(tmp_path):
    cell = _cell(3)
    bus = ResultStore(tmp_path / "store")
    bus.put(cell, 3, wall_ms=1.0)
    ex = QueueExecutor(queue_dir=tmp_path, store=bus)
    try:
        handle = ex.submit(cell)
        assert handle.done()
        assert handle.result().value == 3
        assert not list((tmp_path / "queue").glob("*.task"))
    finally:
        ex.shutdown()


def test_private_bus_is_not_a_cache(tmp_path):
    # Without a store (a --no-cache run) the bus under queue_dir is a
    # transport: a result an earlier run left there is not reused.
    cell = _cell(3)
    ResultStore(tmp_path / "store").put(cell, "stale", wall_ms=1.0)
    ex = QueueExecutor(queue_dir=tmp_path, poll_interval_s=0.02)
    try:
        handle = ex.submit(cell)
        assert not handle.done()
        assert len(list((tmp_path / "queue").glob("*.task"))) == 1
        assert run_worker(tmp_path, worker="w1", poll_interval_s=0.01,
                          max_idle_s=0.2) == 0
        assert handle.result().value == 3
    finally:
        ex.shutdown()


# ----------------------------------------------------------------------
# Real worker subprocesses
# ----------------------------------------------------------------------
def test_killed_workers_cell_is_redispatched(tmp_path):
    marker = tmp_path / "unblock"
    cell = Cell(
        ("x",), "exec_cells:sleepy",
        {"x": 7, "sleep_s": 120.0, "marker": str(marker)},
    )
    ex = QueueExecutor(
        queue_dir=tmp_path, lease_timeout_s=1.0, poll_interval_s=0.05
    )
    victim = rescuer = None
    try:
        handle = ex.submit(cell)
        victim = _spawn_worker(tmp_path, "victim")
        deadline = time.monotonic() + 60
        while not list((tmp_path / "active").glob("*.victim.task")):
            assert time.monotonic() < deadline, "victim never claimed"
            time.sleep(0.05)
        victim.send_signal(signal.SIGKILL)  # mid-cell, claim + heartbeat orphaned
        victim.wait(timeout=10)
        marker.touch()  # the re-dispatched attempt runs instantly
        rescuer = _spawn_worker(tmp_path, "rescuer")
        assert handle.result().value == 7
        assert ex.stats()["reclaims"] >= 1
    finally:
        ex.shutdown()
        for proc in (victim, rescuer):
            if proc is not None and proc.poll() is None:
                proc.kill()
            if proc is not None:
                proc.wait(timeout=10)


def _queue_figure_data(name, cold, figure_store, tmp_path):
    """``name`` through a queue coordinator and two real workers.

    The result bus is a copy of the session's figure store
    (tests/conftest.py) without the cells keyed ``cold``: those cross
    the spool and are simulated by the workers, the others resume from
    the bus — the figure is assembled from both.
    """
    spec = prepare_scenario(name, scale="quick", seed=0)
    cells = expand(spec)
    bus = ResultStore(shutil.copytree(figure_store.dir, tmp_path / "store"))
    cold_keys = {cell_key(c) for c in cells if c.key in cold}
    assert len(cold_keys) == len(cold)
    for key in cold_keys:
        assert bus.discard(key)
    ex = QueueExecutor(queue_dir=tmp_path / "spool", store=bus, poll_interval_s=0.05)
    workers = [_spawn_worker(tmp_path / "spool", f"w{i}") for i in (1, 2)]
    try:
        with CellPool(executor=ex) as pool:
            results = pool.gather(pool.submit(cells))
        stats = ex.stats()
    finally:
        ex.shutdown()
        for proc in workers:
            proc.wait(timeout=10)
    assert stats["completed"] == len(cold_keys)
    assert stats["workers"] >= 2
    return assemble_scenario(spec, cells, results)


def test_fig5a_two_queue_workers_byte_identical_to_golden(figure_store, tmp_path):
    cold = [("eventwave", 2), ("orleans", 4), ("aeon_so", 2), ("aeon", 4)]
    data = _queue_figure_data("fig5a", cold, figure_store, tmp_path)
    assert dump(data) == dump(GOLDEN["fig5a"])


def test_fig11_two_queue_workers_byte_identical_to_golden(figure_store, tmp_path):
    cold = [("orleans", "delta")]
    data = _queue_figure_data("fig11", cold, figure_store, tmp_path)
    assert dump(data) == dump(GOLDEN["fig11"])
