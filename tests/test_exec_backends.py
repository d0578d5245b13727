"""Executor strategies: backend selection, serial/pool equivalence, and
retry-on-worker-death (docs/ARCHITECTURE.md § Executors).

The recovery tests SIGKILL real pool workers mid-cell (via the
``exec_cells:kill_self`` body) and assert the sweep either survives —
pool respawned, in-flight cells re-run, byte-identical data — or fails
loudly with :class:`~repro.exec.WorkerLostError` naming the lost cells,
with every completed cell already persisted.
"""

import pytest

from repro.exec import (
    Cell,
    ProcessExecutor,
    SerialExecutor,
    WorkerLostError,
    make_executor,
    resolve_executor,
)
from repro.harness.runner import CellPool
from repro.results.store import MISS, ResultStore


def _cells(values):
    return [Cell((x,), "json:dumps", {"obj": x}) for x in values]


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------
def test_resolve_executor_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
    assert resolve_executor(None, 1) == "serial"
    assert resolve_executor(None, 4) == "pool"
    monkeypatch.setenv("REPRO_EXECUTOR", "queue")
    assert resolve_executor(None, 1) == "queue"
    assert resolve_executor("serial", 4) == "serial"  # explicit beats env
    with pytest.raises(ValueError):
        resolve_executor("warp", 1)


def test_make_executor_instance_passthrough_and_queue_dir(tmp_path):
    backend = SerialExecutor()
    assert make_executor(backend) is backend
    made = make_executor(None, jobs=1, queue_dir=tmp_path / "q")
    try:
        assert type(made).__name__ == "QueueExecutor"
    finally:
        made.shutdown()


# ----------------------------------------------------------------------
# Serial / pool equivalence
# ----------------------------------------------------------------------
def test_serial_and_pool_backends_agree():
    cells = _cells([3, 1, 2])
    with CellPool(executor="serial") as pool:
        serial = pool.gather(pool.submit(cells))
    with CellPool(jobs=2, executor="pool") as pool:
        pooled = pool.gather(pool.submit(cells))
    assert [r.value for r in serial] == [r.value for r in pooled] == ["3", "1", "2"]
    assert [r.key for r in pooled] == [(3,), (1,), (2,)]


# ----------------------------------------------------------------------
# Worker-death recovery
# ----------------------------------------------------------------------
def test_pool_respawns_after_worker_sigkill(tmp_path):
    # The cell SIGKILLs its first worker mid-run (leaving a marker), so
    # the pool breaks once; the respawned pool's retry returns the value.
    marker = tmp_path / "survived"
    cells = [Cell(("k",), "exec_cells:kill_self", {"marker": str(marker), "x": 42})]
    with CellPool(jobs=2, executor="pool") as pool:
        results = pool.gather(pool.submit(cells))
        assert pool.executor.stats()["respawns"] == 1
    assert [(r.key, r.value) for r in results] == [(("k",), 42)]


def test_pool_worker_loss_is_bounded_and_resumable(tmp_path):
    store = ResultStore(tmp_path / "results")
    safe = Cell(("safe",), "json:dumps", {"obj": 7})
    with CellPool(store=store) as pool:  # one completed cell already persisted
        pool.gather(pool.submit([safe]))
    doomed = Cell(("doomed",), "exec_cells:kill_self", {})  # dies every attempt
    backend = ProcessExecutor(jobs=2, store=store, max_respawns=1)
    with pytest.raises(WorkerLostError) as info:
        with CellPool(jobs=2, store=store, executor=backend) as pool:
            pool.gather(pool.submit([doomed]))
    assert ("doomed",) in info.value.cells
    # the partial store survives the crash — rerunning resumes from it
    assert ResultStore(tmp_path / "results").load(safe) == "7"


def test_cli_reports_lost_cells_and_exits_nonzero(monkeypatch, capsys, tmp_path):
    from repro.harness import experiments

    class DoomedPool:
        def __init__(self, *args, **kwargs):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def submit(self, cells):
            return [(cell, None) for cell in cells]

        def gather(self, handles):
            raise WorkerLostError(
                "worker death broke the process pool",
                cells=[handles[0][0].key],
            )

    monkeypatch.setattr(experiments, "CellPool", DoomedPool)
    rc = experiments.main(
        ["--figure", "fig9", "--cache-dir", str(tmp_path / "cache")]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "executor error" in err
    assert "lost cell" in err
    assert "rerun to resume" in err
