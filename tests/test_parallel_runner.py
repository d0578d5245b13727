"""Parallel experiment engine: ``--jobs N`` must be byte-identical to serial.

Figure data is assembled from :class:`~repro.exec.Cell` results in cell
order, and each cell is a self-contained deterministic simulation — so
fanning cells out to worker processes must reproduce the serial figure
data *byte for byte*.  The serial bytes are the pinned golden
(``tests/test_scenarios.py`` holds the serial path to it, e.g.
``test_fig5a_byte_identical_to_legacy`` and
``test_fig6a_byte_identical_to_legacy``), so these tests JSON-serialize
the ``jobs=4`` path — fig9 here, and the session store's one ``jobs=4``
fig11 run (tests/conftest.py) — and compare it with the golden strings,
per the determinism contract in docs/ARCHITECTURE.md.
"""

import os

import pytest

from conftest import GOLDEN, dump
from repro.exec import Cell, CellResult, execute_cell, resolve_jobs
from repro.harness.runner import run_cells
from repro.harness.scenarios import run_scenario


# ----------------------------------------------------------------------
# Engine mechanics (cheap)
# ----------------------------------------------------------------------
def _cells(values):
    # Pool-crossing cells must use a dotted path importable in *any*
    # worker (fork or spawn) — a stdlib function qualifies, this test
    # module does not.
    return [Cell((x,), "json:dumps", {"obj": x}) for x in values]


def test_run_cells_preserves_cell_order():
    cells = _cells([7, 3, 5, 1])
    for jobs in (1, 3):
        results = run_cells(cells, jobs=jobs)
        assert [r.key for r in results] == [(7,), (3,), (5,), (1,)]
        assert [r.value for r in results] == ["7", "3", "5", "1"]


def _square_cell(x):  # in-process execute_cell only: no pool, any platform
    return x * x


def test_execute_cell_resolves_dotted_path():
    result = execute_cell(Cell(("k",), "test_parallel_runner:_square_cell", {"x": 6}))
    assert result == CellResult(("k",), 36)


def test_resolve_jobs():
    assert resolve_jobs(1) == 1
    assert resolve_jobs(5) == 5
    assert resolve_jobs(0) >= 1  # cpu_count
    with pytest.raises(ValueError):
        resolve_jobs(-1)


def test_run_cells_honours_the_executor_env(monkeypatch):
    # Precedence explicit > REPRO_EXECUTOR > jobs-based holds for
    # run_cells too: jobs=1 is in-process only when nothing says "pool".
    cell = Cell((0,), "os:getpid", {})
    monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
    assert run_cells([cell])[0].value == os.getpid()
    monkeypatch.setenv("REPRO_EXECUTOR", "pool")
    assert run_cells([cell])[0].value != os.getpid()


def test_fig9_parallel_byte_identical():
    assert dump(run_scenario("fig9", scale="quick", jobs=4)) == dump(GOLDEN["fig9"])


# ----------------------------------------------------------------------
# Figure-level byte-identity (the acceptance gate; slower)
# ----------------------------------------------------------------------
def test_fig11_quick_parallel_byte_identical(figure_store):
    # The session's one fig11 run is a jobs=4 run (tests/conftest.py).
    assert dump(figure_store.cold["fig11"]) == dump(GOLDEN["fig11"])
