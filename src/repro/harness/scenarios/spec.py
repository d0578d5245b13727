"""Scenario specs: sizing presets, the five frozen spec dataclasses and
the registry they are filed in.

A spec is plain data — frozen and picklable, so it travels inside every
:class:`~repro.exec.Cell` a sweep expands to — and the registry maps a
scenario's name to it.  Nothing here runs a simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..runner import SYSTEMS

#: The package whose public names are the built-in cell bodies: every
#: built-in ``Cell.fn`` is ``f"{_SCN}:<name>"``, so where a body lives
#: inside the package never reaches a cell key.
_SCN = "repro.harness.scenarios"


# ----------------------------------------------------------------------
# Sizing presets
# ----------------------------------------------------------------------
@dataclass
class Scale:
    """Experiment sizing knobs."""

    game_duration_ms: float
    game_warmup_ms: float
    game_clients_per_server: int
    tpcc_duration_ms: float
    tpcc_warmup_ms: float
    tpcc_clients_per_server: int
    server_counts: Tuple[int, ...]
    client_sweep: Tuple[int, ...]
    elastic_duration_ms: float
    migration_duration_ms: float
    emanager_batch: int
    fault_duration_ms: float = 16000.0
    fault_clients: int = 48
    fault_checkpoint_ms: float = 1500.0
    # churn (long-horizon availability) sizing.
    churn_duration_ms: float = 30000.0
    churn_clients: int = 40
    churn_mtbf_ms: float = 3000.0
    churn_start_ms: float = 5000.0
    churn_checkpoint_ms: float = 1500.0
    churn_restart_ms: Tuple[float, float] = (1500.0, 4000.0)
    # massive tier (bulk registration) sizing.
    massive_contexts: int = 100_000
    massive_servers: int = 32
    massive_clients: int = 256
    massive_duration_ms: float = 800.0
    massive_warmup_ms: float = 200.0
    massive_think_ms: float = 2.0


SCALES: Dict[str, Scale] = {
    "quick": Scale(
        game_duration_ms=1200.0,
        game_warmup_ms=400.0,
        game_clients_per_server=60,
        tpcc_duration_ms=8000.0,
        tpcc_warmup_ms=2500.0,
        tpcc_clients_per_server=12,
        server_counts=(2, 4, 8),
        client_sweep=(8, 32, 96, 192),
        elastic_duration_ms=40000.0,
        migration_duration_ms=12000.0,
        emanager_batch=40,
        fault_duration_ms=16000.0,
        fault_clients=48,
        fault_checkpoint_ms=1500.0,
        churn_duration_ms=30000.0,
        churn_clients=40,
        churn_mtbf_ms=3000.0,
        churn_start_ms=5000.0,
        churn_checkpoint_ms=1500.0,
        churn_restart_ms=(1500.0, 4000.0),
    ),
    "full": Scale(
        game_duration_ms=2500.0,
        game_warmup_ms=700.0,
        game_clients_per_server=110,
        tpcc_duration_ms=15000.0,
        tpcc_warmup_ms=4000.0,
        tpcc_clients_per_server=16,
        server_counts=(2, 4, 8, 12, 16),
        client_sweep=(8, 24, 64, 128, 256, 512),
        elastic_duration_ms=60000.0,
        migration_duration_ms=20000.0,
        emanager_batch=120,
        fault_duration_ms=40000.0,
        fault_clients=120,
        fault_checkpoint_ms=2000.0,
        churn_duration_ms=120000.0,
        churn_clients=96,
        churn_mtbf_ms=12000.0,
        churn_start_ms=10000.0,
        churn_checkpoint_ms=2000.0,
        churn_restart_ms=(2000.0, 8000.0),
        massive_contexts=300_000,
        massive_servers=96,
        massive_clients=384,
        massive_duration_ms=1200.0,
        massive_warmup_ms=300.0,
        massive_think_ms=2.0,
    ),
    # The million-context tier: figure sizing mirrors "full" (so any
    # scenario *can* run here), but what the preset is for is the
    # massive_* scenarios — a 1M-leaf population on a several-hundred
    # server fleet, bulk-registered.
    "massive": Scale(
        game_duration_ms=2500.0,
        game_warmup_ms=700.0,
        game_clients_per_server=110,
        tpcc_duration_ms=15000.0,
        tpcc_warmup_ms=4000.0,
        tpcc_clients_per_server=16,
        server_counts=(2, 4, 8, 12, 16),
        client_sweep=(8, 24, 64, 128, 256, 512),
        elastic_duration_ms=60000.0,
        migration_duration_ms=20000.0,
        emanager_batch=120,
        massive_contexts=1_000_000,
        massive_servers=256,
        massive_clients=768,
        massive_duration_ms=1500.0,
        massive_warmup_ms=300.0,
        massive_think_ms=2.0,
    ),
}


# ----------------------------------------------------------------------
# Spec dataclasses (frozen, picklable: they travel inside Cell kwargs)
# ----------------------------------------------------------------------
class ScenarioError(ValueError):
    """Raised for invalid scenario names, axes or ``--set`` overrides."""


@dataclass(frozen=True)
class GameSpec:
    """Game-application shape (see :class:`repro.apps.game.GameConfig`)."""

    rooms: int = 0  # 0 -> one room per server
    players_per_room: int = 8
    shared_items_per_room: int = 4
    #: "uniform" | "geometric" — client traffic across rooms; geometric
    #: is the 0.5**i hot/cold skew of the churn experiments (honored by
    #: the fault and elastic paths).
    room_weights: str = "uniform"


@dataclass(frozen=True)
class TpccSpec:
    """TPC-C application shape (see :class:`repro.apps.tpcc.TpccConfig`)."""

    districts: int = 0  # 0 -> one district per server
    customers_per_district: int = 10


@dataclass(frozen=True)
class WorkloadSpec:
    """One client population: closed-loop, or following the ramp profile
    on the elastic path (the driver the spec selects decides which)."""

    think_ms: float = 2.0
    clients: int = 0  # absolute population; 0 -> clients_per_server
    clients_per_server: int = 0  # 0 -> the scale preset's default
    max_retries: int = 0
    name_prefix: str = "client"
    # ramp (DynamicClients) knobs:
    profile: str = "normal_peak"  # "normal_peak" | "diurnal"
    machines: int = 8
    min_per_machine: int = 1
    max_per_machine: int = 16
    cycles: int = 2  # diurnal day/night cycles over the run


@dataclass(frozen=True)
class FaultSpec:
    """Fault schedule + detection/recovery/SLO knobs for a scenario.

    ``kind="crash"`` is the fig10 single mid-run fail-stop (placed by
    run fractions); ``kind="churn"`` is the fig11 sustained
    crash/restart churn (exponential arrivals); ``kind="split_brain"``
    is an *asymmetric* partition (detector + eManager cut off from one
    server while clients still reach it) that never heals within the
    run; ``kind="partition_recovery"`` is the same cut healing while
    recovery is mid-flight.  Zero-valued sizing fields fall back to the
    scale preset.

    The honest-failure knobs (``fencing``, ``honest_recovery``,
    ``crash_drops_state``) all default **off**, which keeps every legacy
    figure byte-identical; the partition kinds are expected to turn at
    least ``honest_recovery`` on — with it off, recovery would peek
    ground truth, see a live server and skip the restore entirely.
    """

    kind: str = "none"  # "none" | "crash" | "churn" | "split_brain" | "partition_recovery"
    heartbeat_ms: float = 200.0
    lease_ms: float = 650.0
    check_ms: float = 100.0
    checkpoint_ms: float = 0.0  # 0 -> scale default
    checkpoint_mode: str = "full"  # "full" | "delta"
    # crash placement (fractions of the run):
    crash_frac: float = 0.35
    restart_frac: float = 0.30
    victim: int = 1  # index into the server fleet
    # churn arrivals:
    mtbf_ms: float = 0.0  # 0 -> scale default
    restart_ms: Tuple[float, float] = (0.0, 0.0)  # (0,0) -> scale default
    churn_start_ms: float = 0.0  # 0 -> scale default
    # windowed availability SLO (churn only):
    window_ms: float = 500.0
    goodput_fraction: float = 0.85
    p99_multiplier: float = 3.0
    p99_floor_ms: float = 20.0
    # honest failure semantics (all default off — legacy byte-identical):
    fencing: bool = False
    honest_recovery: bool = False
    crash_drops_state: bool = False
    fence_grace_ms: float = 300.0
    # partition placement (split_brain / partition_recovery kinds):
    partition_frac: float = 0.35
    partition_ms: float = 0.0  # 0 -> kind-specific default


@dataclass(frozen=True)
class ElasticSpec:
    """eManager + SLA policy knobs for elastic scenarios."""

    sla_ms: float = 10.0
    scale_out_step: int = 4
    min_servers: int = 4
    max_servers: int = 40
    scale_in_fraction: float = 0.25
    headroom: float = 0.45
    boot_delay_ms: float = 1500.0
    report_interval_ms: float = 1000.0
    max_concurrent_migrations: int = 8


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative experiment: what to deploy, sweep and measure.

    The spec is frozen and picklable — :func:`expand` embeds it in each
    generated :class:`~repro.exec.Cell`, so worker processes
    rebuild the exact deployment from data alone.  Field groups:

    * **deployment** — ``app`` ("game" | "tpcc" | "mixed"), ``systems``,
      ``servers`` (fixed fleet) or ``server_counts`` (sweep; empty =
      the scale preset's counts), ``instance``, ``game``/``tpcc`` shape;
    * **workload** — ``workload`` (plus ``tpcc_workload`` for the mixed
      co-tenant), ``duration_ms``/``warmup_ms``/``drain_ms`` (0 = the
      scale preset's sizing);
    * **faults / elasticity** — ``faults`` (:class:`FaultSpec`),
      ``elastic`` (:class:`ElasticSpec` or ``None``);
    * **sweep** — ``seeds``, ``axes`` (extra named axes; a value of
      ``()`` pulls the scale default, e.g. ``("clients", ())``),
      ``points`` (explicit sweep points overriding the cross-product);
    * **output** — ``metrics`` (RunResult attributes), ``output`` (the
      :data:`OUTPUTS` entry that assembles and renders the results),
      optional custom ``cell`` body (a ``"module:function"`` path).

    Axis names (and ``--set`` keys) resolve against spec fields, then
    against the sub-spec fields (workload, faults, elastic, game, tpcc)
    — e.g. an axis ``("mtbf_ms", (1500, 3000))`` sweeps
    ``faults.mtbf_ms``.  See docs/SCENARIOS.md for the full reference.
    """

    name: str
    title: str
    description: str = ""
    # Deployment.
    app: str = "game"
    systems: Tuple[str, ...] = SYSTEMS
    servers: int = 0
    server_counts: Tuple[int, ...] = ()
    instance: str = ""  # "" -> m3.large
    game: GameSpec = GameSpec()
    tpcc: TpccSpec = TpccSpec()
    # Workload + measurement window.
    workload: WorkloadSpec = WorkloadSpec()
    tpcc_workload: WorkloadSpec = WorkloadSpec(
        think_ms=5.0, name_prefix="tpcc-client"
    )
    duration_ms: float = 0.0
    warmup_ms: float = 0.0
    drain_ms: float = 0.0
    # Faults / elasticity.
    faults: FaultSpec = FaultSpec()
    elastic: Optional[ElasticSpec] = None
    # Sweep.
    scale: str = "quick"
    seeds: Tuple[int, ...] = (0,)
    axes: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()
    points: Tuple[Tuple[Tuple[str, Any], ...], ...] = ()
    # Output.
    metrics: Tuple[str, ...] = ("throughput_per_s",)
    output: str = "curve"
    cell: str = ""

    def with_(self, **changes: Any) -> "ScenarioSpec":
        """A copy with ``changes`` applied (sugar over dataclasses.replace)."""
        return replace(self, **changes)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
REGISTRY: Dict[str, ScenarioSpec] = {}

#: Names of the paper's own figures and tables (§6), in registration
#: order: what ``--figure`` accepts and ``--all`` runs.  A tag on the
#: registration, not a spec field — spec fields are hashed into every
#: cell key.
PAPER_FIGURES: Tuple[str, ...] = ()


def register(spec: ScenarioSpec, paper: bool = False) -> ScenarioSpec:
    """Register ``spec`` under its name; returns it.  Names are unique.

    ``paper=True`` also lists the name in :data:`PAPER_FIGURES`.
    """
    global PAPER_FIGURES
    if spec.name in REGISTRY:
        raise ScenarioError(f"scenario {spec.name!r} already registered")
    REGISTRY[spec.name] = spec
    if paper:
        PAPER_FIGURES += (spec.name,)
    return spec


def scenario(
    builder: Optional[Callable[[], ScenarioSpec]] = None, *, paper: bool = False
):
    """Decorator: register the :class:`ScenarioSpec` the builder returns.

    The builder runs once at import time; keep it a pure spec literal::

        @scenario
        def my_sweep() -> ScenarioSpec:
            return ScenarioSpec(name="my_sweep", ...)

    ``@scenario(paper=True)`` marks one of the paper's own figures (see
    :func:`register`).
    """
    if builder is None:
        return lambda fn: scenario(fn, paper=paper)
    register(builder(), paper=paper)
    return builder


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a registered spec by name."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise ScenarioError(
            f"unknown scenario {name!r}; pick from {', '.join(sorted(REGISTRY))}"
        ) from None


def list_scenarios() -> List[str]:
    """All registered scenario names, sorted."""
    return sorted(REGISTRY)
