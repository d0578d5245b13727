"""The declarative scenario API: registry, sweeps, overrides, byte-identity.

Every paper figure must produce **byte-identical JSON** to
``tests/data/figures_quick_seed0.json`` (generated by the pre-spec
implementations with ``--all --scale quick --seed 0``); here we pin

* full-figure byte-identity for the cheap figures (fig5a, fig6a, fig9,
  ablation — both generic and custom cell paths);
* single-cell byte-identity for one representative cell of each
  expensive figure (fig5b, fig6b, fig10 — covering the generic
  game/tpcc sweep and the crash fault wiring; fig11's churn wiring is
  pinned whole by the session store's ``jobs=4`` run, see
  ``tests/test_parallel_runner.py``);
* the exact cell plan (keys, cell function, kwargs) of all eleven
  figures, which — cells being deterministic functions of their
  kwargs — extends the byte-identity guarantee to the figures whose
  full runs are too slow for tier-1 (fig7, table1, fig8).

CI's experiments-smoke job re-runs ``--all`` and diffs the complete
JSON against the same golden file (tools/compare_figures.py).
"""

import json
from pathlib import Path

import pytest

from conftest import GOLDEN, digest, dump
from repro.exec import Cell
from repro.harness.experiments import main
from repro.harness.runner import SYSTEMS, CellPool
from repro.harness.scenarios import (
    PAPER_FIGURES,
    REGISTRY,
    ScenarioError,
    apply_overrides,
    expand,
    get_scenario,
    list_scenarios,
    render_scenario,
    run_point,
    run_scenario,
    sweep_axes,
)
from repro.workloads.sla import SlaReport

_SCN = "repro.harness.scenarios"


# ----------------------------------------------------------------------
# Registry round-trip
# ----------------------------------------------------------------------
def test_registry_covers_all_legacy_experiments():
    # Every legacy CLI name is a registered scenario tagged as a paper
    # figure (one golden entry each), and the registry only adds (never
    # shadows) beyond-the-paper scenarios.
    assert sorted(PAPER_FIGURES) == sorted(GOLDEN)
    assert set(PAPER_FIGURES) <= set(list_scenarios())
    for name in PAPER_FIGURES:
        assert get_scenario(name).name == name


def test_registry_has_the_new_scenarios():
    for name in ("mixed_cotenancy", "churn_sweep", "diurnal"):
        assert name in list_scenarios()
        assert name not in PAPER_FIGURES  # they are --scenario only


def test_list_scenarios_cli_matches_registry(capsys):
    assert main(["--list-scenarios"]) == 0
    out = capsys.readouterr().out
    for name in list_scenarios():
        assert name in out


def test_get_scenario_unknown_name():
    with pytest.raises(ScenarioError, match="unknown scenario"):
        get_scenario("fig99")


def test_register_rejects_duplicate_names():
    from repro.harness.scenarios import register

    with pytest.raises(ScenarioError, match="already registered"):
        register(REGISTRY["fig5a"])


# ----------------------------------------------------------------------
# Cell plans: the spec sweep expands to exactly the legacy enumeration
# ----------------------------------------------------------------------
def _plan(name):
    cells = expand(get_scenario(name))
    return [(c.key, c.fn, c.kwargs) for c in cells]


def _strip_spec(kwargs):
    return {k: v for k, v in kwargs.items() if k != "spec"}


def test_fig5a_fig6a_cell_plans():
    for name in ("fig5a", "fig6a"):
        spec = get_scenario(name)
        plan = _plan(name)
        expected_keys = [(s, n) for s in SYSTEMS for n in (2, 4, 8)]
        assert [key for key, _fn, _kw in plan] == expected_keys
        for (system, n), fn, kwargs in plan:
            assert fn == f"{_SCN}:run_point"
            assert _strip_spec(kwargs) == {"system": system, "n_servers": n}
            assert kwargs["spec"] == spec


def test_fig5b_fig6b_cell_plans():
    for name in ("fig5b", "fig6b"):
        plan = _plan(name)
        expected_keys = [(s, c) for s in SYSTEMS for c in (8, 32, 96, 192)]
        assert [key for key, _fn, _kw in plan] == expected_keys
        for (system, clients), fn, kwargs in plan:
            assert fn == f"{_SCN}:run_point"
            assert _strip_spec(kwargs) == {"system": system, "clients": clients}


def test_fig7_table1_cell_plans():
    # The elastic figures shard into (setup, rep) sub-cells; the default
    # single rep=0 reproduces the historical monolithic cells (same
    # effective seed), and the four shared setups produce *identical*
    # cells across the two figures (deduplicated on a shared pool).
    fig7_plan = _plan("fig7")
    table1_plan = _plan("table1")
    assert [key for key, _fn, _kw in fig7_plan] == [
        (s, 0) for s in ("elastic", "8", "16", "32")
    ]
    assert [key for key, _fn, _kw in table1_plan] == [
        (s, 0) for s in ("8", "16", "22", "32", "elastic")
    ]
    for key, fn, kwargs in fig7_plan + table1_plan:
        assert fn == f"{_SCN}:elastic_cell"
        assert kwargs == {"setup": key[0], "rep": 0, "scale": "quick", "seed": 0}
    shared = {("8",), ("16",), ("32",), ("elastic",)}
    fig7_cells = {(fn, tuple(sorted(kw.items()))) for _k, fn, kw in fig7_plan}
    table1_cells = {(fn, tuple(sorted(kw.items()))) for _k, fn, kw in table1_plan}
    assert len(fig7_cells & table1_cells) == len(shared)


def test_fig8_fig9_ablation_cell_plans():
    assert _plan("fig8") == [
        ((n,), f"{_SCN}:fig8_cell", {"n_migrations": n, "scale": "quick", "seed": 0})
        for n in (1, 8, 12)
    ]
    assert _plan("fig9") == [
        (
            (itype, size),
            f"{_SCN}:fig9_cell",
            {"itype_name": itype, "size_bytes": size, "scale": "quick", "seed": 0},
        )
        for itype in ("m1.large", "m1.medium", "m1.small")
        for size in (1024, 1_000_000)
    ]
    assert _plan("ablation") == [
        (
            (early,),
            f"{_SCN}:ablation_cell",
            {"early_release": early, "scale": "quick", "seed": 0},
        )
        for early in (True, False)
    ]


def test_fig10_fig11_cell_plans():
    fig10_plan = _plan("fig10")
    assert [key for key, _fn, _kw in fig10_plan] == [
        ("aeon",), ("eventwave",), ("orleans",)
    ]
    for (system,), fn, kwargs in fig10_plan:
        assert fn == f"{_SCN}:run_point"
        assert _strip_spec(kwargs) == {"system": system}
    fig11_plan = _plan("fig11")
    assert [key for key, _fn, _kw in fig11_plan] == [
        ("aeon", "delta"),
        ("eventwave", "delta"),
        ("orleans", "delta"),
        ("aeon", "full"),
    ]
    for (system, mode), fn, kwargs in fig11_plan:
        assert fn == f"{_SCN}:run_point"
        assert _strip_spec(kwargs) == {"system": system, "checkpoint_mode": mode}


def test_rep_axis_shards_the_elastic_cells():
    spec = apply_overrides(get_scenario("table1"), ["rep=0,1,2"])
    cells = expand(spec)
    assert len(cells) == 15  # 5 setups x 3 reps
    assert [c.key for c in cells[:3]] == [("8", 0), ("8", 1), ("8", 2)]
    assert cells[1].kwargs["rep"] == 1  # rep shards shift the seed in-cell


def test_seed_sweep_becomes_an_axis():
    spec = get_scenario("fig5a").with_(seeds=(0, 1))
    axes = dict(sweep_axes(spec))
    assert axes["seed"] == (0, 1)
    cells = expand(spec)
    assert len(cells) == len(SYSTEMS) * 3 * 2


def test_multi_seed_rejected_where_assembly_cannot_combine():
    # Custom-cell scenarios pin their own seed handling (rep shards)...
    with pytest.raises(ScenarioError, match="rep=0,1,2"):
        expand(get_scenario("fig7").with_(seeds=(0, 1)))
    # ...and non-curve outputs have no way to merge seed replicas —
    # dropping seeds[1:] silently would corrupt keyed assembly.
    with pytest.raises(ScenarioError, match="multi-seed"):
        expand(get_scenario("fig10").with_(seeds=(0, 1)))
    with pytest.raises(ScenarioError, match="multi-seed"):
        expand(get_scenario("fig11").with_(seeds=(0, 1)))  # explicit points
    with pytest.raises(ScenarioError, match="multi-seed"):
        expand(get_scenario("churn_sweep").with_(seeds=(0, 1)))


def test_set_systems_beside_explicit_points_fails_fast():
    # fig11's points alone pick what runs: its point set is its systems,
    # and a systems= override that the points would ignore is rejected.
    spec = get_scenario("fig11")
    assert {c.kwargs["system"] for c in expand(spec)} == set(spec.systems)
    with pytest.raises(ScenarioError, match="explicit points"):
        expand(apply_overrides(spec, ["systems=aeon"]))


def test_set_server_counts_beside_a_fixed_fleet_fails_fast():
    # fig5b runs on a fixed 8-server fleet, so server_counts never sweeps.
    with pytest.raises(ScenarioError, match="fixed fleet"):
        expand(apply_overrides(get_scenario("fig5b"), ["server_counts=2"]))


def test_instance_type_reaches_the_generic_drivers():
    spec = get_scenario("fig5a").with_(duration_ms=600.0, warmup_ms=200.0)
    default = run_point(spec, system="aeon", n_servers=2)
    small = run_point(spec.with_(instance="m1.small"), system="aeon", n_servers=2)
    assert 0 < small < default
    with pytest.raises(ScenarioError, match="unknown instance"):
        run_point(spec.with_(instance="m9.huge"), system="aeon", n_servers=2)


def test_cli_rejects_conflicting_selectors(capsys):
    with pytest.raises(SystemExit):
        main(["--all", "--scenario", "churn_sweep"])
    assert "pick one of" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["--figure", "fig9", "--scenario", "diurnal"])
    assert "pick one of" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Byte-identity against the pre-spec golden data (quick scale, seed 0)
# ----------------------------------------------------------------------
def test_fig9_byte_identical_to_legacy():
    assert dump(run_scenario("fig9", scale="quick", seed=0)) == dump(GOLDEN["fig9"])


def test_ablation_byte_identical_to_legacy():
    assert dump(run_scenario("ablation", scale="quick", seed=0)) == dump(GOLDEN["ablation"])


def test_fig5a_byte_identical_to_legacy(figure_store):
    # The session's one serial fig5a run (tests/conftest.py).
    assert dump(figure_store.cold["fig5a"]) == dump(GOLDEN["fig5a"])


def test_fig6a_byte_identical_to_legacy():
    assert dump(run_scenario("fig6a", scale="quick", seed=0)) == dump(GOLDEN["fig6a"])


def test_fig5b_cell_byte_identical_to_legacy():
    # One representative sweep point (aeon, 96 clients) of the generic
    # game xy path; the full figure is pinned by CI's --all diff.
    value = run_point(spec=get_scenario("fig5b"), system="aeon", clients=96)
    assert dump(value) == dump(GOLDEN["fig5b"]["aeon"][2])


def test_fig6b_cell_byte_identical_to_legacy():
    value = run_point(spec=get_scenario("fig6b"), system="aeon", clients=96)
    assert dump(value) == dump(GOLDEN["fig6b"]["aeon"][2])


def test_fig10_cell_byte_identical_to_legacy(recorded_histories):
    # The generic crash-fault wiring must reproduce the historical
    # fig10_run driver byte for byte.
    value = run_point(spec=get_scenario("fig10"), system="aeon")
    assert dump(value) == dump(GOLDEN["fig10"]["aeon"])
    # The checker, on the same run: no hard violation, and every write
    # the recovery rolled back is a lost update it finds on its own.
    (history,) = recorded_histories
    assert history.check() == value["lost_work"] == 1408


def test_rendered_text_pinned():
    # What the CLI prints for the eleven paper figures, off the pinned
    # golden (no simulation).  JSON keeps an SlaReport's fields but not
    # its violation_pct property, which _render_fig7 reads.
    blocks = []
    for name in sorted(PAPER_FIGURES):
        data = GOLDEN[name]
        if name == "fig7":
            data = {
                setup: {**run, "sla": SlaReport(**run["sla"])}
                for setup, run in data.items()
            }
        blocks.append(render_scenario(get_scenario(name), data) + "\n\n")
    pinned = Path(__file__).parent / "data" / "rendered_quick_seed0.txt"
    assert "".join(blocks) == pinned.read_text()


def test_rendered_text_pinned_beyond_the_paper():
    # The same pin for the seven registered scenarios beyond the paper,
    # off their assembled data as written by ``--scenario <each>
    # --scale quick --seed 0 --json`` (no simulation).  diurnal's SLA
    # report is rebuilt as for fig7.
    data_dir = Path(__file__).parent / "data"
    captured = json.loads((data_dir / "beyond_quick_seed0.json").read_text())
    experiments = captured["experiments"]
    assert sorted(experiments) == sorted(set(list_scenarios()) - set(PAPER_FIGURES))
    blocks = []
    for name in sorted(experiments):
        data = experiments[name]
        if name == "diurnal":
            data = {
                system: {**run, "sla": SlaReport(**run["sla"])}
                for system, run in data.items()
            }
        blocks.append(render_scenario(get_scenario(name), data) + "\n\n")
    pinned = data_dir / "rendered_beyond_quick_seed0.txt"
    assert "".join(blocks) == pinned.read_text()


# ----------------------------------------------------------------------
# --set overrides: folding and validation
# ----------------------------------------------------------------------
def test_set_overrides_axis_values():
    spec = apply_overrides(get_scenario("churn_sweep"), ["mtbf_ms=1000,4000"])
    assert dict(spec.axes)["mtbf_ms"] == (1000, 4000)


def test_set_overrides_spec_and_subspec_fields():
    spec = get_scenario("fig5a")
    spec = apply_overrides(
        spec,
        [
            "duration_ms=900",          # ScenarioSpec field
            "think_ms=3.5",             # found in workload
            "faults.lease_ms=500",      # dotted sub-spec path
            "systems=aeon,orleans",     # tuple field
            "seeds=7",                  # scalar wrapped into a tuple
        ],
    )
    assert spec.duration_ms == 900
    assert spec.workload.think_ms == 3.5
    assert spec.faults.lease_ms == 500
    assert spec.systems == ("aeon", "orleans")
    assert spec.seeds == (7,)


def test_set_rejects_unknown_keys():
    spec = get_scenario("fig5a")
    with pytest.raises(ScenarioError, match="unknown scenario key"):
        apply_overrides(spec, ["bogus_knob=1"])
    with pytest.raises(ScenarioError, match="unknown field"):
        apply_overrides(spec, ["faults.bogus=1"])
    with pytest.raises(ScenarioError, match="unknown sub-spec"):
        apply_overrides(spec, ["bogus.lease_ms=1"])
    with pytest.raises(ScenarioError, match="key=value"):
        apply_overrides(spec, ["no-equals-sign"])
    with pytest.raises(ScenarioError, match="cannot be overridden"):
        apply_overrides(spec, ["name=evil"])


def test_set_on_missing_subspec_errors():
    # fig5a has no elastic spec: dotted access must say so, not crash.
    with pytest.raises(ScenarioError, match="has no elastic"):
        apply_overrides(get_scenario("fig5a"), ["elastic.sla_ms=5"])


def test_cli_rejects_bad_set(capsys):
    with pytest.raises(SystemExit):
        main(["--figure", "fig9", "--set", "bogus_knob=1"])
    assert "unknown scenario key" in capsys.readouterr().err


def test_cli_set_requires_single_scenario(capsys):
    with pytest.raises(SystemExit):
        main(["--all", "--set", "duration_ms=100"])
    assert "single scenario" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Matrix runner: repeated --scenario groups through one shared executor
# ----------------------------------------------------------------------
def test_cli_matrix_binds_sets_to_nearest_scenario(tmp_path, capsys):
    out = tmp_path / "matrix.json"
    assert main([
        "--scenario", "fig9", "--set", "itype_name=m1.small",
        "--scenario", "fig9", "--set", "itype_name=m1.medium",
        "--no-cache", "--json", str(out),
    ]) == 0
    stdout = capsys.readouterr().out
    payload = json.loads(out.read_text())["experiments"]
    # repeats of a scenario render under name, name@2, ... keys
    assert sorted(payload) == ["fig9", "fig9@2"]
    assert list(payload["fig9"]) == ["m1.small"]
    assert list(payload["fig9@2"]) == ["m1.medium"]
    assert "m1.small" in stdout and "m1.medium" in stdout


def test_cli_matrix_global_set_applies_to_every_group(tmp_path):
    # --set before any --scenario is global; the two identical groups
    # dedup to one set of executed cells on the shared pool.
    out = tmp_path / "matrix.json"
    assert main([
        "--set", "itype_name=m1.small",
        "--scenario", "fig9", "--scenario", "fig9",
        "--no-cache", "--json", str(out),
    ]) == 0
    payload = json.loads(out.read_text())["experiments"]
    assert sorted(payload) == ["fig9", "fig9@2"]
    assert payload["fig9"] == payload["fig9@2"]
    assert list(payload["fig9"]) == ["m1.small"]


# ----------------------------------------------------------------------
# Shared pool: dedup + streaming order
# ----------------------------------------------------------------------
def test_cell_pool_deduplicates_identical_cells():
    cells_a = [Cell((x,), "json:dumps", {"obj": x}) for x in (1, 2)]
    cells_b = [Cell(("b", x), "json:dumps", {"obj": x}) for x in (2, 3)]
    with CellPool(jobs=1) as pool:
        handles_a = pool.submit(cells_a)
        handles_b = pool.submit(cells_b)
        # The duplicate kwargs {"obj": 2} share one handle across batches.
        assert handles_a[1][1] is handles_b[0][1]
        assert handles_a[0][1] is not handles_b[1][1]
        results_a = pool.gather(handles_a)
        results_b = pool.gather(handles_b)
    # Results are re-keyed per requesting cell, in cell order.
    assert [(r.key, r.value) for r in results_a] == [((1,), "1"), ((2,), "2")]
    assert [(r.key, r.value) for r in results_b] == [(("b", 2), "2"), (("b", 3), "3")]


def test_run_cells_on_a_shared_pool_preserves_order():
    cells = [Cell((x,), "json:dumps", {"obj": x}) for x in (7, 3, 5)]
    for jobs in (1, 3):
        with CellPool(jobs=jobs) as pool:
            results = pool.gather(pool.submit(cells))
        assert [r.key for r in results] == [(7,), (3,), (5,)]
        assert [r.value for r in results] == ["7", "3", "5"]


# ----------------------------------------------------------------------
# New scenarios: end-to-end smoke at quick scale (shrunk via --set)
# ----------------------------------------------------------------------
def test_churn_sweep_scenario_smoke(recorded_histories):
    data = run_scenario(
        "churn_sweep",
        scale="quick",
        overrides=[
            "mtbf_ms=2000",
            "duration_ms=9000",
            "churn_start_ms=2500",
            "clients=16",
        ],
    )
    assert [r["mtbf_ms"] for r in data["rows"]] == [2000]
    row = data["rows"][0]
    assert row["system"] == "aeon"
    assert row["crashes"] >= 1, "shrunk churn window still must crash something"
    # The fleet stays up through the churn (the ordering across MTBF
    # points needs the unshrunk sweep: CI asserts it at quick scale).
    assert 50.0 < row["availability_pct"] <= 100.0
    assert row["checkpoint_bytes_written"] > 0
    run = data["runs"]["aeon@2000"]
    assert run["checkpoint_mode"] == "delta"
    assert run["goodput"], "goodput series missing"
    # The checker on the same churn cell (delta checkpoints): no hard
    # violation, and the lost updates it finds are the payload's.
    (history,) = recorded_histories
    assert history.check() == run["slo"]["lost_work"] == 85
    assert digest(data) == (
        "d6b54787b3fef52e1cf62fcabd64ae64a0b4cd76c3756f367b5ff4a792b0114f"
    )


def test_mixed_cotenancy_scenario_smoke():
    data = run_scenario(
        "mixed_cotenancy",
        scale="quick",
        overrides=[
            "systems=aeon,orleans",
            "duration_ms=2500",
            "warmup_ms=800",
            "drain_ms=5000",
            "clients=20",
            "tpcc_workload.clients=8",
        ],
    )
    # Both co-tenants make progress on every system under test.  The
    # combined counter sees every completion (including TPC-C
    # sub-transactions like new_order/sub), so the top-level per-app
    # split is a strict subset of it.
    for system, run in data.items():
        assert run["game"]["completed"] > 0, f"{system}: game starved"
        assert run["tpcc"]["completed"] > 0, f"{system}: tpcc starved"
    # AEON's multiple ownership keeps the co-tenant game faster than the
    # turn-locked Orleans variant under the same mixed load.
    assert (
        data["aeon"]["game"]["throughput_per_s"]
        > data["orleans"]["game"]["throughput_per_s"]
    )
    run = data["aeon"]
    assert (
        0
        < run["game"]["completed"] + run["tpcc"]["completed"]
        <= run["combined"]["completed"]
    )
    assert run["game"]["throughput_per_s"] > 0
    assert run["tpcc"]["p99_latency_ms"] >= run["tpcc"]["mean_latency_ms"] * 0.5
    assert digest(data) == (
        "74cc3e7c092c403ad537c2be281fc0e6502237ffa67577679003eb78e1bc550d"
    )


def test_mixed_cotenancy_rejects_eventwave():
    # EventWave's runtime requires exactly one ownership root; two
    # co-tenant apps are inexpressible there and must fail fast with an
    # explanation, not with a million per-op delivery errors.
    with pytest.raises(ScenarioError, match="one root context"):
        run_scenario(
            "mixed_cotenancy",
            scale="quick",
            overrides=["systems=eventwave", "duration_ms=1000"],
        )


def test_diurnal_scenario_smoke():
    data = run_scenario(
        "diurnal",
        scale="quick",
        overrides=["duration_ms=9000", "machines=4", "max_per_machine=6"],
    )
    run = data["aeon"]
    assert run["latency_series"], "latency series missing"
    assert run["server_series"], "eManager fleet series missing"
    # The diurnal wave actually waved: the client population left its floor.
    targets = [n for _t, n in run["client_series"]]
    assert run["peak_clients"] > 4  # machines * min_per_machine
    assert max(targets, default=0) > min(targets, default=0)
    # Two diurnal cycles -> the client curve has two distinct peaks.
    floor = min(targets)
    threshold = floor + 0.6 * (max(targets) - floor)
    peaks = 0
    above = False
    for n in targets:
        if not above and n >= threshold:
            peaks += 1
            above = True
        elif above and n < threshold:
            above = False
    assert peaks >= 2, f"expected a two-peak wave, saw {peaks}"
    # The fleet tracked the wave: it grew beyond its floor and came back
    # down (peak above average implies both directions moved).
    servers = [n for _t, n in run["server_series"]]
    assert run["peak_servers"] > min(servers)
    assert 0 < run["avg_servers"] < run["peak_servers"]
    assert digest(data) == (
        "525f84c486445aba5e1e9e13b3854c1064c702b63b6d2578c5a178830ae20d5e"
    )


def test_cli_scenario_end_to_end(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    code = main(
        [
            "--scenario", "churn_sweep",
            "--set", "mtbf_ms=2500",
            "--set", "duration_ms=8000",
            "--set", "churn_start_ms=2500",
            "--set", "clients=12",
            "--json", str(out),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "Churn sweep" in printed
    payload = json.loads(out.read_text())
    assert "churn_sweep" in payload["experiments"]
    assert payload["experiments"]["churn_sweep"]["rows"]
