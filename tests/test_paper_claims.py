"""The paper's §6 claims, asserted on the pinned golden figures.

AEON's evaluation is a set of orderings and shapes — AEON above AEON_SO
above EventWave at the largest scale, EventWave's plateau at its root
sequencer, Orleans* above Orleans, the elastic fleet beating the static
8-server one.  ``tests/data/figures_quick_seed0.json`` holds the bytes
of all eleven paper figures (quick scale, seed 0), and
``tests/test_scenarios.py`` plus CI's ``--all`` diff pin the simulator
to those bytes — so the claims are read off the golden here, without
simulating anything.  A change that moves a figure must regenerate the
golden, and then has to get past these assertions.
"""

from conftest import GOLDEN
from repro.harness.scenarios import fig10_phases
from repro.sim.metrics import mean
from repro.workloads.sla import SlaReport


def test_fig5a_game_scaleout():
    data = GOLDEN["fig5a"]
    at_max = {system: curve[-1][1] for system, curve in data.items()}
    # EventWave plateaus at its root sequencer: adding servers beyond the
    # knee must not help materially.
    ew = dict(map(tuple, data["eventwave"]))
    servers = sorted(ew)
    assert ew[servers[-1]] < ew[servers[0]] * 2.5
    # Paper ordering at the largest scale: AEON > AEON_SO > EventWave,
    # Orleans* between AEON_SO-ish and EventWave, Orleans near the bottom.
    assert at_max["aeon"] > at_max["aeon_so"] > at_max["eventwave"]
    assert at_max["aeon"] > 2.0 * at_max["eventwave"]
    assert at_max["orleans_star"] > at_max["orleans"]
    assert at_max["aeon"] > at_max["orleans_star"]


def test_fig5b_game_performance():
    data = GOLDEN["fig5b"]

    # Latency is flat at low load and explodes past saturation; AEON
    # sustains the highest throughput at bounded latency.
    def max_thr_under(system, latency_cap):
        return max(
            (thr for thr, lat in data[system] if lat <= latency_cap), default=0.0
        )

    cap = 40.0
    assert max_thr_under("aeon", cap) > max_thr_under("eventwave", cap)
    assert max_thr_under("aeon", cap) > max_thr_under("orleans", cap)
    # EventWave's latency skyrockets once the root saturates.
    ew_latencies = [lat for _thr, lat in data["eventwave"]]
    assert max(ew_latencies) > 3 * min(ew_latencies)


def test_fig6a_tpcc_scaleout():
    data = GOLDEN["fig6a"]
    at_max = {system: curve[-1][1] for system, curve in data.items()}
    # Neither EventWave nor Orleans scales (flat curves).
    for flat in ("eventwave", "orleans"):
        first = data[flat][0][1]
        last = data[flat][-1][1]
        assert last < first * 1.5, flat
    # AEON_SO scales further than AEON (the multi-ownership District
    # sequencing saturates first), and Orleans* catches AEON_SO's league
    # at the largest scale — both above AEON there.
    assert at_max["aeon_so"] > at_max["aeon"]
    assert at_max["orleans_star"] > at_max["aeon"]
    # AEON still beats both strictly-serializable baselines everywhere.
    eventwave = dict(map(tuple, data["eventwave"]))
    orleans = dict(map(tuple, data["orleans"]))
    for n_servers, thr in data["aeon"]:
        assert thr > eventwave[n_servers]
        assert thr > orleans[n_servers]


def test_fig6b_tpcc_performance():
    data = GOLDEN["fig6b"]
    # EventWave and Orleans saturate with few clients: their latency at
    # the end of the sweep is an order of magnitude above the start.
    for system in ("eventwave", "orleans"):
        lats = [lat for _thr, lat in data[system]]
        assert lats[-1] > 5 * lats[0], system
    # Orleans* sustains more throughput than AEON (its best-case, no
    # strict serializability), per the paper.
    max_star = max(thr for thr, _lat in data["orleans_star"])
    max_aeon = max(thr for thr, _lat in data["aeon"])
    assert max_star > 0.9 * max_aeon


def test_fig7_elastic_vs_static():
    data = GOLDEN["fig7"]
    sla = {setup: SlaReport(**run["sla"]) for setup, run in data.items()}
    # The static 8-server fleet buckles at peak load; the elastic fleet
    # and the 32-server fleet hold the SLA far better.
    static8 = sla["8"].violation_pct
    static32 = sla["32"].violation_pct
    elastic = sla["elastic"].violation_pct
    assert static8 > 2 * static32
    assert elastic < static8
    # Elasticity actually grew the fleet.
    servers = [v for _t, v in data["elastic"]["server_series"]]
    assert max(servers) > 8
    # ...and used fewer servers on average than the static 32 fleet.
    assert sla["elastic"].avg_servers < 32


def test_table1_sla_cost():
    by_setup = {row["setup"]: row for row in GOLDEN["table1"]}
    # Violations decrease monotonically with fleet size.
    v8 = by_setup["8-server"]["violation_pct"]
    v16 = by_setup["16-server"]["violation_pct"]
    v32 = by_setup["32-server"]["violation_pct"]
    assert v8 >= v16 >= v32
    # The elastic setup approaches the 32-server SLA compliance with a
    # significantly smaller average fleet (the paper: 21.4 vs 32).
    elastic = by_setup["Elastic"]
    assert elastic["avg_servers"] < 32
    assert elastic["violation_pct"] < v8


def test_fig8_migration_impact():
    dips = {}
    for label, points in GOLDEN["fig8"].items():
        values = [v for _t, v in points if v > 0]
        steady = mean(values[: max(3, len(values) // 4)])
        dips[label] = (steady - min(values)) / steady if steady else 0.0
    # Migrating more contexts at once dips throughput more (mildly —
    # requests to a moving context are only delayed, per the paper).
    assert dips["12 contexts"] >= dips["1 contexts"]
    # Even the worst dip is bounded: the system keeps serving.
    assert dips["12 contexts"] < 0.6


def test_fig9_emanager_throughput():
    data = GOLDEN["fig9"]
    # Larger instances move more contexts per second...
    assert data["m1.large"]["1KB"] > data["m1.medium"]["1KB"] > data["m1.small"]["1KB"]
    assert data["m1.large"]["1MB"] > data["m1.medium"]["1MB"] >= data["m1.small"]["1MB"]
    # ...and big contexts migrate slower than small ones everywhere.
    for itype, sizes in data.items():
        assert sizes["1KB"] > sizes["1MB"], itype
    # Shape vs paper (90/40 on m1.large => ratio ~2.25 +- generous band).
    ratio = data["m1.large"]["1KB"] / data["m1.large"]["1MB"]
    assert 1.5 < ratio < 4.0


def test_fig10_availability():
    for system, run in GOLDEN["fig10"].items():
        phases = fig10_phases(run)
        # The crash costs goodput while the victim's contexts are gone...
        assert phases["outage"] < phases["pre"], f"{system}: no outage dip"
        # ...and checkpoint-restore brings the system back to steady state.
        assert phases["post"] >= 0.85 * phases["pre"], f"{system}: no recovery"
        # The detector actually declared the victim dead, with a latency
        # bounded by lease + check interval (650 + 100 ms, plus slack).
        detections = [d for d in run["detections"] if d["latency_ms"] is not None]
        assert detections, f"{system}: crash never detected"
        assert all(d["latency_ms"] <= 1200.0 for d in detections)
        # Everything the victim hosted was re-placed.
        assert run["contexts_recovered"] > 0


def test_fig11_availability_under_churn():
    data = GOLDEN["fig11"]
    aeon = data["systems"]["aeon"]

    # The churn actually happened and was detected + recovered from.
    assert aeon["crashes"] >= 3, "churn schedule too quiet to stress anything"
    assert aeon["detections"] >= aeon["crashes"] * 0.5
    assert aeon["recoveries"] >= 3
    assert aeon["contexts_recovered"] > 0
    # Detection stays within lease + check interval (650 + 100 ms + slack).
    assert 0.0 < aeon["mean_detection_latency_ms"] <= 1200.0

    # AEON meets the availability SLO across the whole churn horizon:
    # ≥90% of windows keep ≥85% of fault-free goodput at bounded p99.
    assert aeon["slo"]["availability_pct"] >= 90.0, aeon["slo"]
    # Push-invalidation actually fired (the detector-driven redirection).
    assert aeon["cache_invalidations"] > 0

    # Every system sustained majority availability under the same churn.
    for system, run in data["systems"].items():
        assert run["slo"]["availability_pct"] >= 60.0, (
            f"{system}: availability collapsed under churn"
        )

    # Incremental checkpoints cut checkpoint bytes written by >= 50% on
    # the identical (skewed-traffic) churn scenario.
    delta_bytes = aeon["checkpoint_bytes_written"]
    full_bytes = data["aeon_full"]["checkpoint_bytes_written"]
    assert full_bytes > 0
    assert delta_bytes <= 0.5 * full_bytes, (
        f"delta checkpoints saved too little: {delta_bytes} vs {full_bytes}"
    )
    # Delta mode also skipped unchanged intervals outright.
    assert aeon["checkpoints_skipped"] > 0
    assert data["aeon_full"]["checkpoints_skipped"] == 0


def test_ablation_chain_release():
    data = GOLDEN["ablation"]
    # Chain release pipelines the WH -> District -> Customer chain and
    # must outperform strict hold-till-commit significantly.
    assert data["chain-release"] > 1.3 * data["hold-till-commit"]
