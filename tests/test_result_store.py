"""The persistent result store: keys, robustness, resume, byte-identity.

Covers the `repro.results` subsystem end to end:

* content-addressed keys — stable across assembly positions, sensitive
  to every spec field, ``--set`` override, fault/fencing knob and seed;
* store robustness — corrupted/truncated entries degrade to cache
  misses (recompute + atomic overwrite, never a crash), a version-tag
  change invalidates the whole store, killed writers leave no torn
  state behind;
* resume — a store populated by a partial run makes the rerun execute
  only the remainder (the killed ``--all`` contract), and a failing
  cell does not lose the cells completed before it;
* byte-identity — cached figures (fig5a, fig11 quick) are identical to
  fresh ones at ``--jobs`` 1 and 4, pinned against the golden file;
* the CLI surface — ``--cache-dir``/``--no-cache``/``--refresh`` on the
  experiments CLI (warm pass = 100% hits) and the ``python -m
  repro.results`` maintenance commands.
"""

import json
from pathlib import Path

import pytest

from conftest import GOLDEN, dump
from repro.exec import Cell
from repro.harness.experiments import main
from repro.harness.runner import CellPool, run_cells
from repro.harness.scenarios import (
    assemble_scenario,
    expand,
    get_scenario,
    prepare_scenario,
    run_scenario,
)
from repro.results import MISS, ResultStore, cell_key
from repro.results.__main__ import main as results_main, parse_age


def _keys(name, overrides=()):
    spec = prepare_scenario(name, scale="quick", seed=0, overrides=overrides)
    return [cell_key(cell) for cell in expand(spec)]


# ----------------------------------------------------------------------
# Content-addressed keys
# ----------------------------------------------------------------------
def test_key_stable_and_assembly_position_excluded():
    a = Cell(("aeon", 2), "m:f", {"x": 1, "spec": None})
    b = Cell(("somewhere", "else"), "m:f", {"spec": None, "x": 1})
    assert cell_key(a) == cell_key(b)  # key ≠ content; kwarg order ≠ content
    assert cell_key(a) != cell_key(Cell(("aeon", 2), "m:g", {"x": 1, "spec": None}))
    assert cell_key(a) != cell_key(Cell(("aeon", 2), "m:f", {"x": 2, "spec": None}))


def test_shared_elastic_setups_hash_to_one_entry():
    # fig7 and table1 request the same (setup, rep) cells; content
    # addressing must give them the same entries.
    fig7_keys = set(_keys("fig7"))
    table1_keys = set(_keys("table1"))
    assert fig7_keys <= table1_keys


@pytest.mark.parametrize(
    "override",
    [
        "think_ms=9.5",
        "faults.fencing=True",
        "faults.mtbf_ms=1234.0",
        "faults.checkpoint_ms=777.0",
        "duration_ms=12345.0",
    ],
)
def test_every_override_lands_in_every_key(override):
    # Any --set change must invalidate ALL of fig11's cells: a stale hit
    # after turning a fault knob would silently corrupt the figure.
    assert not set(_keys("fig11")) & set(_keys("fig11", (override,)))


def test_seed_and_scale_land_in_the_key():
    base = set(_keys("fig5a"))
    other_seed = {
        cell_key(c)
        for c in expand(prepare_scenario("fig5a", scale="quick", seed=1))
    }
    other_scale = {
        cell_key(c) for c in expand(prepare_scenario("fig5a", scale="full"))
    }
    assert not base & other_seed
    assert not base & other_scale


def test_version_tag_lands_in_the_key(monkeypatch):
    cell = Cell((), "m:f", {"x": 1})
    before = cell_key(cell)
    monkeypatch.setattr("repro.results.store.STORE_TAG", "repro-results/99 kernel=next")
    assert cell_key(cell) != before


# ----------------------------------------------------------------------
# Store basics: roundtrip, manifest, atomicity
# ----------------------------------------------------------------------
def test_put_load_roundtrip_and_counters(tmp_path):
    store = ResultStore(tmp_path / "store")
    cell = Cell(("a",), "m:f", {"x": 1})
    assert store.load(cell) is MISS
    store.put(cell, {"v": [1, 2]}, wall_ms=12.5)
    assert store.load(cell) == {"v": [1, 2]}
    assert (store.hits, store.misses) == (1, 1)
    # None is a legal cached value, distinct from MISS.
    none_cell = Cell(("b",), "m:f", {"x": 2})
    store.put(none_cell, None)
    assert store.load(none_cell) is None


def test_manifest_entry_fields(tmp_path):
    store = ResultStore(tmp_path / "store")
    spec = get_scenario("fig5a")
    cell = expand(spec)[0]
    store.put(cell, 42.0, wall_ms=3.25)
    (entry,) = store.entries()
    assert entry["key"] == cell_key(cell)
    assert entry["scenario"] == "fig5a"
    assert entry["cell"] == repr(tuple(cell.key))
    assert entry["fn"] == cell.fn
    assert entry["wall_ms"] == 3.25
    assert entry["status"] == "ok"
    assert entry["created_at"] > 0
    assert entry["bytes"] > 0


def test_no_stray_tmp_files_after_puts(tmp_path):
    store = ResultStore(tmp_path / "store")
    for i in range(5):
        store.put(Cell((i,), "m:f", {"i": i}), list(range(i)))
    assert not list((tmp_path / "store" / "objects").glob("*.tmp*"))


def test_refresh_mode_always_misses_but_overwrites(tmp_path):
    root = tmp_path / "store"
    cell = Cell(("a",), "m:f", {"x": 1})
    ResultStore(root).put(cell, "old")
    refreshing = ResultStore(root, refresh=True)
    assert refreshing.load(cell) is MISS
    refreshing.put(cell, "new")
    assert ResultStore(root).load(cell) == "new"


# ----------------------------------------------------------------------
# Robustness: corruption, truncation, version bumps
# ----------------------------------------------------------------------
def _object_path(store, cell):
    return store.root / "objects" / f"{cell_key(cell)}.pkl"


@pytest.mark.parametrize("damage", [b"not a pickle", b""])
def test_corrupt_or_truncated_entry_is_a_miss_then_overwritten(tmp_path, damage):
    store = ResultStore(tmp_path / "store")
    cell = Cell(("a",), "repro.sim.metrics:mean", {"values": [1.0, 3.0]})
    store.put(cell, 2.0)
    _object_path(store, cell).write_bytes(damage)  # partial write / bad bytes
    assert store.load(cell) is MISS  # logged, never raised
    # The execution layer recomputes and atomically overwrites:
    (result,) = run_cells([cell], store=store)
    assert result.value == 2.0
    assert ResultStore(tmp_path / "store").load(cell) == 2.0


def test_torn_manifest_line_is_skipped(tmp_path):
    store = ResultStore(tmp_path / "store")
    store.put(Cell(("a",), "m:f", {"x": 1}), "value")
    with open(store.root / "manifest.jsonl", "a", encoding="utf-8") as handle:
        handle.write('{"key": "torn-half-wr')  # killed mid-append
    (entry,) = store.entries()
    assert entry["scenario"] == "m:f"
    assert store.stats()["entries"] == 1


def test_version_tag_bump_invalidates_whole_store(tmp_path):
    root = tmp_path / "store"
    cell = Cell(("a",), "m:f", {"x": 1})
    ResultStore(root).put(cell, "value")
    # Simulate a store written by an older kernel generation.
    (root / "FORMAT").write_text("repro-results/0 kernel=older", encoding="utf-8")
    reopened = ResultStore(root)
    assert reopened.load(cell) is MISS
    assert reopened.entries() == []
    assert (root / "FORMAT").read_text(encoding="utf-8") != "repro-results/0 kernel=older"


# ----------------------------------------------------------------------
# Resume: only the remainder executes; failures lose nothing completed
# ----------------------------------------------------------------------
def _record_cell(tag, out_dir):
    """Test cell body: logs its execution, returns a marker value."""
    with open(Path(out_dir) / "executed.log", "a", encoding="utf-8") as handle:
        handle.write(f"{tag}\n")
    return f"ran-{tag}"


def _failing_cell(tag, out_dir):
    if tag == "boom":
        raise RuntimeError("cell failure")
    return _record_cell(tag, out_dir)


def _executions(out_dir):
    log = Path(out_dir) / "executed.log"
    return log.read_text().splitlines() if log.exists() else []


_HERE = "test_result_store"


def test_interrupted_run_resumes_with_only_the_remainder(tmp_path):
    cells = [
        Cell((tag,), f"{_HERE}:_record_cell", {"tag": tag, "out_dir": str(tmp_path)})
        for tag in ("c0", "c1", "c2", "c3", "c4")
    ]
    # "Killed" run: only the first two cells completed and persisted.
    run_cells(cells[:2], store=ResultStore(tmp_path / "store"))
    assert _executions(tmp_path) == ["c0", "c1"]
    # Rerun of the full sweep: only the remainder executes.
    store = ResultStore(tmp_path / "store")
    results = run_cells(cells, store=store)
    assert _executions(tmp_path) == ["c0", "c1", "c2", "c3", "c4"]
    assert (store.hits, store.misses) == (2, 3)
    assert [r.value for r in results] == [f"ran-c{i}" for i in range(5)]
    # Fully warm rerun: nothing executes at all.
    warm = ResultStore(tmp_path / "store")
    run_cells(cells, store=warm)
    assert _executions(tmp_path) == ["c0", "c1", "c2", "c3", "c4"]
    assert (warm.hits, warm.misses) == (5, 0)


def test_failing_cell_keeps_earlier_cells_persisted(tmp_path):
    cells = [
        Cell((tag,), f"{_HERE}:_failing_cell", {"tag": tag, "out_dir": str(tmp_path)})
        for tag in ("ok0", "ok1", "boom", "ok2")
    ]
    with pytest.raises(RuntimeError, match="cell failure"):
        run_cells(cells, store=ResultStore(tmp_path / "store"))
    # The cells completed before the failure survived the crash...
    store = ResultStore(tmp_path / "store")
    assert store.load(cells[0]) == "ran-ok0"
    assert store.load(cells[1]) == "ran-ok1"
    # ...and the failed cell was never persisted.
    assert store.load(cells[2]) is MISS


# ----------------------------------------------------------------------
# Byte-identity: cached == fresh at any --jobs level, against golden
# ----------------------------------------------------------------------
def test_fig5a_cached_byte_identical_across_jobs(figure_store):
    # The cold serial run is the session's (tests/conftest.py).
    cold = figure_store.cold["fig5a"]
    assert dump(cold) == dump(GOLDEN["fig5a"])
    # Warm parallel read of a serially-written store: every cell is a
    # hit, nothing is dispatched, bytes match the golden exactly.
    spec = get_scenario("fig5a")
    cells = expand(spec)
    store = ResultStore(figure_store.dir)
    with CellPool(jobs=4, store=store) as pool:
        results = pool.gather(pool.submit(cells))
    warm = assemble_scenario(spec, cells, results)
    assert (store.hits, store.misses) == (len(cells), 0)
    assert dump(warm) == dump(GOLDEN["fig5a"])
    assert dump(warm) == dump(cold)


def test_fig11_cached_byte_identical_across_jobs(figure_store):
    # Cold at jobs=4 (the session's run), warm serial read of that store.
    assert dump(figure_store.cold["fig11"]) == dump(GOLDEN["fig11"])
    warm = run_scenario(
        "fig11", scale="quick", seed=0, jobs=1, cache="auto",
        cache_dir=figure_store.dir,
    )
    assert dump(warm) == dump(GOLDEN["fig11"])


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
def test_cli_cache_flags_warm_pass_is_all_hits(tmp_path, capsys):
    cache_dir = str(tmp_path / "store")
    cold_json = tmp_path / "cold.json"
    warm_json = tmp_path / "warm.json"
    args = ["--figure", "fig9", "--scale", "quick", "--cache-dir", cache_dir]
    assert main(args + ["--json", str(cold_json)]) == 0
    out_cold = capsys.readouterr().out
    assert main(args + ["--json", str(warm_json)]) == 0
    out_warm = capsys.readouterr().out

    cold = json.loads(cold_json.read_text())
    warm = json.loads(warm_json.read_text())
    assert cold["experiments"] == warm["experiments"]
    assert cold["cache"]["hits"] == 0 and cold["cache"]["misses"] > 0
    assert warm["cache"]["misses"] == 0
    assert warm["cache"]["hits"] == cold["cache"]["misses"]
    # The summary line reports the hit count (the acceptance criterion).
    assert "0% " not in out_warm.split("result store:")[1][:40]
    assert "cache hits" in out_cold and "cache hits" in out_warm


def test_cli_refresh_recomputes_and_no_cache_conflicts(tmp_path, capsys):
    cache_dir = str(tmp_path / "store")
    args = ["--figure", "fig9", "--scale", "quick", "--cache-dir", cache_dir]
    assert main(args) == 0
    capsys.readouterr()
    assert main(args + ["--refresh"]) == 0
    out = capsys.readouterr().out
    assert "0/6 cache hits" in out  # refresh never loads
    with pytest.raises(SystemExit):
        main(args + ["--refresh", "--no-cache"])


def test_cli_no_cache_prints_no_summary(capsys):
    assert main(["--figure", "fig9", "--scale", "quick", "--no-cache"]) == 0
    assert "result store:" not in capsys.readouterr().out


def test_maintenance_cli(tmp_path, capsys):
    cache_dir = str(tmp_path / "store")
    assert main(["--figure", "fig9", "--scale", "quick", "--cache-dir", cache_dir]) == 0
    capsys.readouterr()

    assert results_main(["--dir", cache_dir, "ls"]) == 0
    out = capsys.readouterr().out
    assert "6 entries" in out and "_fig9_cell" in out

    assert results_main(["--dir", cache_dir, "stats"]) == 0
    out = capsys.readouterr().out
    assert "entries:  6" in out
    assert "repro.harness.scenarios:_fig9_cell" in out

    # Nothing is older than a day; everything is older than 0 seconds.
    assert results_main(["--dir", cache_dir, "gc", "--older-than", "1d"]) == 0
    assert "removed 0" in capsys.readouterr().out
    assert results_main(["--dir", cache_dir, "gc", "--older-than", "0"]) == 0
    assert "removed 6" in capsys.readouterr().out

    assert main(["--figure", "fig9", "--scale", "quick", "--cache-dir", cache_dir]) == 0
    capsys.readouterr()
    assert results_main(["--dir", cache_dir, "clear"]) == 0
    assert "removed 6" in capsys.readouterr().out
    assert ResultStore(cache_dir).entries() == []


def test_parse_age():
    assert parse_age("30s") == 30.0
    assert parse_age("45m") == 45 * 60.0
    assert parse_age("12h") == 12 * 3600.0
    assert parse_age("7d") == 7 * 86400.0
    assert parse_age("90") == 90.0
    with pytest.raises(Exception):
        parse_age("soon")
