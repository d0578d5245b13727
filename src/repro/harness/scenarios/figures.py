"""The registered scenarios: the paper's figures, then the ones beyond it.

Importing this module registers all eighteen (the package does, so
``--list-scenarios`` sees them); each builder is a pure spec literal.
"""

from __future__ import annotations

from .spec import (
    _SCN, ElasticSpec, FaultSpec, GameSpec, ScenarioSpec, WorkloadSpec, scenario,
)


# ----------------------------------------------------------------------
# The paper's figures
# ----------------------------------------------------------------------
@scenario(paper=True)
def _fig5a() -> ScenarioSpec:
    """Game throughput vs number of servers, all five systems."""
    return ScenarioSpec(
        name="fig5a",
        title="Fig 5a — game scale-out (events/s)",
        description="Game throughput vs number of servers, all five systems.",
        app="game",
        workload=WorkloadSpec(think_ms=2.0),
        metrics=("throughput_per_s",),
        output="curve",
    )


@scenario(paper=True)
def _fig5b() -> ScenarioSpec:
    """Game (throughput, mean latency) pairs over a client sweep."""
    return ScenarioSpec(
        name="fig5b",
        title="Fig 5b — game latency vs throughput (thr/s, ms)",
        description="Game latency vs throughput at 8 servers over a client sweep.",
        app="game",
        servers=8,
        workload=WorkloadSpec(think_ms=2.0),
        axes=(("clients", ()),),  # () -> the scale preset's client_sweep
        metrics=("throughput_per_s", "mean_latency_ms"),
        output="xy",
    )


@scenario(paper=True)
def _fig6a() -> ScenarioSpec:
    """TPC-C throughput vs number of servers (one district each)."""
    return ScenarioSpec(
        name="fig6a",
        title="Fig 6a — TPC-C scale-out (events/s)",
        description="TPC-C throughput vs number of servers (one district each).",
        app="tpcc",
        workload=WorkloadSpec(think_ms=5.0),
        metrics=("throughput_per_s",),
        output="curve",
    )


@scenario(paper=True)
def _fig6b() -> ScenarioSpec:
    """TPC-C (throughput, mean latency) pairs over a client sweep."""
    return ScenarioSpec(
        name="fig6b",
        title="Fig 6b — TPC-C latency vs throughput (txn/s, ms)",
        description="TPC-C latency vs throughput at 8 servers over a client sweep.",
        app="tpcc",
        servers=8,
        workload=WorkloadSpec(think_ms=5.0),
        axes=(("clients", ()),),
        metrics=("throughput_per_s", "mean_latency_ms"),
        output="xy",
    )


@scenario(paper=True)
def _fig7() -> ScenarioSpec:
    """Latency/server-count time series: elastic vs static setups."""
    return ScenarioSpec(
        name="fig7",
        title="Fig 7 — elastic vs static (mean latency per setup)",
        description="Latency and fleet-size time series, elastic vs static setups.",
        cell=f"{_SCN}:elastic_cell",
        axes=(("setup", ("elastic", "8", "16", "32")), ("rep", (0,))),
        output="fig7",
    )


@scenario(paper=True)
def _table1() -> ScenarioSpec:
    """SLA violation percentage and average servers per setup."""
    return ScenarioSpec(
        name="table1",
        title="Table 1 — SLA performance and cost",
        description="SLA violations and average fleet size per setup.",
        cell=f"{_SCN}:elastic_cell",
        axes=(("setup", ("8", "16", "22", "32", "elastic")), ("rep", (0,))),
        output="table1",
    )


@scenario(paper=True)
def _fig8() -> ScenarioSpec:
    """Throughput time series while migrating 1/8/12 of 20 Rooms."""
    return ScenarioSpec(
        name="fig8",
        title="Fig 8 — throughput while migrating Room contexts",
        description="Throughput time series while migrating 1/8/12 of 20 Rooms.",
        cell=f"{_SCN}:fig8_cell",
        axes=(("n_migrations", (1, 8, 12)),),
        output="fig8",
    )


@scenario(paper=True)
def _fig9() -> ScenarioSpec:
    """Max contexts/s the eManager migrates, per instance type and size."""
    return ScenarioSpec(
        name="fig9",
        title="Fig 9 — eManager max migration throughput (contexts/s)",
        description="eManager migration throughput per instance type and payload.",
        cell=f"{_SCN}:fig9_cell",
        axes=(
            ("itype_name", ("m1.large", "m1.medium", "m1.small")),
            ("size_bytes", (1024, 1_000_000)),
        ),
        output="fig9",
    )


@scenario(paper=True)
def _fig10() -> ScenarioSpec:
    """Goodput/p99 through a crash/recovery timeline, AEON vs baselines."""
    return ScenarioSpec(
        name="fig10",
        title="Fig 10 — goodput through a crash/recovery timeline (events/s)",
        description="Availability through one mid-run server crash and recovery.",
        app="game",
        systems=("aeon", "eventwave", "orleans"),
        servers=6,
        game=GameSpec(players_per_room=4, shared_items_per_room=2),
        workload=WorkloadSpec(think_ms=8.0, max_retries=2),
        faults=FaultSpec(kind="crash"),
        output="runs",
    )


@scenario(paper=True)
def _fig11() -> ScenarioSpec:
    """Availability SLO table under sustained churn, AEON vs baselines."""
    return ScenarioSpec(
        name="fig11",
        title="Fig 11 — availability SLO under crash/restart churn",
        description="Windowed availability SLO under sustained crash/restart churn.",
        app="game",
        systems=("aeon", "eventwave", "orleans"),
        servers=6,
        game=GameSpec(
            players_per_room=4, shared_items_per_room=2, room_weights="geometric"
        ),
        workload=WorkloadSpec(think_ms=8.0, max_retries=2),
        faults=FaultSpec(kind="churn"),
        points=(
            (("system", "aeon"), ("checkpoint_mode", "delta")),
            (("system", "eventwave"), ("checkpoint_mode", "delta")),
            (("system", "orleans"), ("checkpoint_mode", "delta")),
            (("system", "aeon"), ("checkpoint_mode", "full")),
        ),
        output="fig11",
    )


@scenario(paper=True)
def _ablation() -> ScenarioSpec:
    """TPC-C throughput with and without chain (early) release."""
    return ScenarioSpec(
        name="ablation",
        title="Ablation — chain release (TPC-C, AEON_SO, 4 servers)",
        description="TPC-C throughput with and without chain (early) release.",
        cell=f"{_SCN}:ablation_cell",
        axes=(("early_release", (True, False)),),
        output="ablation",
    )


# ----------------------------------------------------------------------
# Beyond the paper
# ----------------------------------------------------------------------
@scenario
def _mixed_cotenancy() -> ScenarioSpec:
    """Game + TPC-C co-tenants sharing one fleet (per-app + combined metrics)."""
    return ScenarioSpec(
        name="mixed_cotenancy",
        title="Mixed co-tenancy — game + TPC-C on one fleet",
        description="Game and TPC-C deployed on the same servers under "
        "concurrent load; per-app and combined throughput/latency. "
        "(EventWave is excluded: one root context per runtime.)",
        app="mixed",
        systems=("aeon", "aeon_so", "orleans"),
        servers=6,
        workload=WorkloadSpec(think_ms=2.0, clients_per_server=30),
        tpcc_workload=WorkloadSpec(
            think_ms=5.0, clients_per_server=8, name_prefix="tpcc-client"
        ),
        output="mixed",
    )


@scenario
def _churn_sweep() -> ScenarioSpec:
    """Availability vs churn intensity: an MTBF sweep of the fig11 run."""
    return ScenarioSpec(
        name="churn_sweep",
        title="Churn sweep — availability vs MTBF (delta checkpoints)",
        description="fig11's churn run swept over mean-time-between-crashes: "
        "how availability degrades as churn intensifies.",
        app="game",
        systems=("aeon",),
        servers=6,
        game=GameSpec(
            players_per_room=4, shared_items_per_room=2, room_weights="geometric"
        ),
        workload=WorkloadSpec(think_ms=8.0, max_retries=2),
        faults=FaultSpec(kind="churn", checkpoint_mode="delta"),
        axes=(("mtbf_ms", (1500.0, 3000.0, 6000.0)),),
        output="churn_sweep",
    )


@scenario
def _split_brain() -> ScenarioSpec:
    """Asymmetric partition: fencing's zero-lost-updates invariant."""
    return ScenarioSpec(
        name="split_brain",
        title="Split brain — fencing epochs vs lost updates (asymmetric partition)",
        description="An asymmetric partition cuts the detector and eManager "
        "off from one server while clients still reach it; recovery "
        "re-places its subtrees while the old owner keeps serving.  With "
        "fencing the old owner is fenced at declaration and its step-down "
        "flush preserves every acked write (zero lost updates); with "
        "fencing off the restore rolls back to the last periodic "
        "checkpoint and the rolled-back writes are counted.",
        app="game",
        systems=("aeon",),
        servers=4,
        game=GameSpec(players_per_room=4, shared_items_per_room=2),
        workload=WorkloadSpec(think_ms=8.0, max_retries=3),
        faults=FaultSpec(kind="split_brain"),
        axes=(("fencing", (True, False)),),
        output="split_brain",
    )


@scenario
def _partition_recovery() -> ScenarioSpec:
    """A partition healing mid-recovery: re-admission without data loss."""
    return ScenarioSpec(
        name="partition_recovery",
        title="Partition recovery — the cut heals mid-recovery (fencing on)",
        description="The detector-side partition heals inside the fencing "
        "step-down grace window, while recovery is mid-flight: the "
        "returning owner is re-admitted at the current epoch, the flush "
        "still covers every acked write, and nothing is lost or doubly "
        "applied.",
        app="game",
        systems=("aeon",),
        servers=4,
        game=GameSpec(players_per_room=4, shared_items_per_room=2),
        workload=WorkloadSpec(think_ms=8.0, max_retries=3),
        faults=FaultSpec(kind="partition_recovery", fencing=True),
        output="partition_recovery",
    )


@scenario
def _massive_game() -> ScenarioSpec:
    """A million bulk-registered game players."""
    return ScenarioSpec(
        name="massive_game",
        title="Massive game — a million bulk-registered players",
        description="A huge single-parent player population registered "
        "in bulk: leaves materialize lazily on "
        "first touch, percentiles come from the reservoir-sampling "
        "recorder, and a state digest pins determinism.  ~100k contexts "
        "at --scale quick (the CI smoke tier), 1M+ at --scale massive.",
        cell=f"{_SCN}:massive_game_cell",
        axes=(("rep", (0,)),),
        output="massive",
    )


@scenario
def _massive_tpcc() -> ScenarioSpec:
    """A million bulk-registered TPC-C terminals."""
    return ScenarioSpec(
        name="massive_tpcc",
        title="Massive TPC-C — a million bulk-registered terminals",
        description="The TPC-C-shaped massive tier: order-submitting "
        "terminal leaves under district shards, bulk-registered and "
        "lazily materialized.  ~100k contexts at --scale quick (the CI "
        "smoke tier), 1M+ at --scale massive.",
        cell=f"{_SCN}:massive_tpcc_cell",
        axes=(("rep", (0,)),),
        output="massive",
    )


@scenario
def _diurnal() -> ScenarioSpec:
    """Diurnal-wave elasticity: the eManager tracking day/night load cycles."""
    return ScenarioSpec(
        name="diurnal",
        title="Diurnal elasticity — two-peak day/night load (elastic fleet)",
        description="An elastic AEON fleet following a two-cycle diurnal "
        "client wave; latency vs fleet-size trajectories and SLA score.",
        app="game",
        systems=("aeon",),
        servers=8,
        instance="m1.small",
        game=GameSpec(rooms=32, players_per_room=4, shared_items_per_room=2),
        workload=WorkloadSpec(
            profile="diurnal",
            think_ms=12.0,
            machines=8,
            min_per_machine=1,
            max_per_machine=16,
            cycles=2,
        ),
        elastic=ElasticSpec(),
        output="elastic",
    )
