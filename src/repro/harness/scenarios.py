"""Declarative scenario API: specs, a registry, and composable sweeps.

Every experiment in this repository — the paper's figures and anything
you invent — is described by a frozen, picklable :class:`ScenarioSpec`:
the application (:attr:`~ScenarioSpec.app`), the systems under test,
the cluster shape, the workload, the fault schedule, the sizing
(scale/seed/duration) and the metrics/output shape.  The engine turns a
spec into results in three steps:

* :func:`expand` enumerates the spec's sweep axes (systems × server
  counts × seeds × user-declared axes) into independent
  :class:`~repro.exec.Cell`\\ s;
* :func:`run_point` (the generic cell body) wires a testbed,
  application, clients and fault machinery from the spec and runs one
  sweep point;
* :func:`run_scenario` executes the cells (serially, across worker
  processes, or on a shared :class:`~repro.harness.runner.CellPool`)
  and assembles/renders the figure data keyed off the spec's declared
  output shape.

Scenarios register under a name with the :func:`scenario` decorator;
``--scenario NAME`` / ``--list-scenarios`` / ``--set key=value`` on the
CLI (``python -m repro.harness.experiments``) drive any of them.  The
paper's eleven figures are the specs registered with ``paper=True``
(:data:`PAPER_FIGURES`: what ``--figure`` accepts and ``--all`` runs);
their quick-scale JSON is pinned by ``tests/test_scenarios.py`` against
``tests/data/figures_quick_seed0.json``.

Authoring guide (a new scenario in under 20 lines): docs/SCENARIOS.md.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..apps.game import GameConfig, Room, build_game
from ..apps.massive import MassiveConfig, build_massive, run_checksum
from ..apps.tpcc import TpccConfig, TpccWorkload, build_tpcc
from ..core.costs import DEFAULT_COSTS
from ..core.runtime import FAILED_TAG
from ..elasticity import CloudStorage, EManager, MigrationCoordinator, SLAPolicy
from ..exec import Cell
from ..faults import (
    FailureDetector,
    FaultInjector,
    FaultSchedule,
    NetworkPartition,
    ServerCrash,
    random_churn,
)
from ..results.store import open_store
from ..sim.cluster import INSTANCE_TYPES, M1_SMALL, M3_LARGE, InstanceType, Server
from ..sim.metrics import LatencyRecorder, mean, percentile
from ..workloads.generators import ClosedLoopClients, DynamicClients, RampProfile
from ..workloads.sla import availability_slo, sla_report
from .report import format_table
from .runner import SYSTEMS, make_testbed, measure, run_cells, run_closed_loop

#: Dotted-path prefix for this module's cell bodies (see Cell.fn).
_SCN = "repro.harness.scenarios"

__all__ = [
    "Scale",
    "SCALES",
    "GameSpec",
    "TpccSpec",
    "WorkloadSpec",
    "FaultSpec",
    "ElasticSpec",
    "ScenarioSpec",
    "ScenarioError",
    "scenario",
    "register",
    "get_scenario",
    "list_scenarios",
    "REGISTRY",
    "PAPER_FIGURES",
    "sweep_axes",
    "zip_points",
    "expand",
    "apply_overrides",
    "run_point",
    "run_scenario",
    "assemble_scenario",
    "render_scenario",
    "fig10_phases",
]


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
    """One client population: closed-loop or profile-following ramp."""

    kind: str = "closed_loop"  # "closed_loop" | "ramp"
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
      ``zip_axes`` (paired axes that advance *together* instead of
      crossing — all must have equal lengths, validated fail-fast),
      ``points`` (explicit sweep points overriding the cross-product);
    * **output** — ``metrics`` (RunResult attributes), ``output`` (the
      assembly/render shape), optional custom ``cell`` / ``assemble`` /
      ``render`` dotted ``"module:function"`` hooks.

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
    zip_axes: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()
    points: Tuple[Tuple[Tuple[str, Any], ...], ...] = ()
    # Output.
    metrics: Tuple[str, ...] = ("throughput_per_s",)
    output: str = "curve"
    x_name: str = "servers"
    cell: str = ""
    assemble: str = ""
    render: str = ""

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


def _resolve(dotted: str) -> Callable:
    """Resolve a ``"module:function"`` hook (same contract as Cell.fn)."""
    import importlib

    module_name, _, fn_name = dotted.partition(":")
    return getattr(importlib.import_module(module_name), fn_name)


# ----------------------------------------------------------------------
# Sweep expansion
# ----------------------------------------------------------------------
#: Axes whose empty value tuple pulls a per-scale default.
_SCALE_AXIS_DEFAULTS: Dict[str, str] = {
    "n_servers": "server_counts",
    "clients": "client_sweep",
}


def _axis_values(name: str, values: Tuple[Any, ...], sizing: Scale) -> Tuple:
    if values:
        return tuple(values)
    attr = _SCALE_AXIS_DEFAULTS.get(name)
    if attr is None:
        raise ScenarioError(f"axis {name!r} has no values and no scale default")
    return tuple(getattr(sizing, attr))


def _validate_seeds(spec: ScenarioSpec) -> None:
    """Reject multi-seed sweeps the assembly cannot combine.

    Only curve assembly knows how to combine seed replicas (it averages
    the metric per point); everywhere else a swept seed axis would
    silently corrupt keyed assembly — and custom-cell / explicit-points
    scenarios pin their own seed handling (fig7/table1 shard via the
    rep axis).  Fail fast instead of dropping ``seeds[1:]``.
    """
    if len(spec.seeds) <= 1:
        return
    if spec.cell:
        raise ScenarioError(
            f"scenario {spec.name!r} does not support multi-seed sweeps; "
            f"shard repetitions via its axes instead (e.g. --set rep=0,1,2)"
        )
    if spec.points or spec.output != "curve":
        raise ScenarioError(
            f"scenario {spec.name!r} (output {spec.output!r}) does not "
            f"support multi-seed sweeps; only 'curve' outputs average "
            f"across seeds"
        )


def sweep_axes(spec: ScenarioSpec) -> List[Tuple[str, Tuple]]:
    """The spec's ordered sweep axes: ``[(axis_name, values), ...]``.

    Generic (``spec.cell == ""``) scenarios sweep ``system`` first, then
    ``n_servers`` when no fixed fleet is set, then the user-declared
    ``spec.axes``, then ``seed`` when more than one seed is given.
    Custom-cell scenarios sweep exactly ``spec.axes``.
    """
    sizing = SCALES[spec.scale]
    _validate_seeds(spec)
    axes: List[Tuple[str, Tuple]] = []
    if not spec.cell:
        axes.append(("system", tuple(spec.systems)))
        if spec.servers == 0:
            axes.append(("n_servers", _axis_values("n_servers", spec.server_counts, sizing)))
    for name, values in spec.axes:
        axes.append((name, _axis_values(name, tuple(values), sizing)))
    if not spec.cell and len(spec.seeds) > 1:
        axes.append(("seed", tuple(spec.seeds)))
    return axes


def zip_points(spec: ScenarioSpec) -> List[Tuple[Tuple[str, Any], ...]]:
    """The spec's paired-axis positions: ``[((name, value), ...), ...]``.

    Unlike ``spec.axes`` (which cross), the ``spec.zip_axes`` advance
    *together*: position ``i`` takes value ``i`` of every zip axis, like
    Python's ``zip``.  All zip axes must resolve to the same length
    (empty values pull the scale default, exactly as cross axes do);
    mismatched lengths or a name colliding with a cross axis fail fast
    with :class:`ScenarioError` before any cell runs.  Returns ``[()]``
    when no zip axes are declared (the neutral element for the
    cross-product in :func:`_sweep_points`).
    """
    if not spec.zip_axes:
        return [()]
    if spec.points:
        raise ScenarioError(
            f"scenario {spec.name!r} declares both explicit points and "
            f"zip_axes; explicit points already pin every axis value"
        )
    sizing = SCALES[spec.scale]
    resolved = [
        (name, _axis_values(name, tuple(values), sizing))
        for name, values in spec.zip_axes
    ]
    cross_names = {name for name, _values in sweep_axes(spec)}
    for name, _values in resolved:
        if name in cross_names:
            raise ScenarioError(
                f"scenario {spec.name!r}: zip axis {name!r} collides with "
                f"a cross-product axis of the same name"
            )
    lengths = {name: len(values) for name, values in resolved}
    if len(set(lengths.values())) > 1:
        raise ScenarioError(
            f"scenario {spec.name!r}: zip axes must have equal lengths, got "
            + ", ".join(f"{name}={n}" for name, n in lengths.items())
        )
    length = next(iter(lengths.values()))
    return [
        tuple((name, values[i]) for name, values in resolved)
        for i in range(length)
    ]


def _sweep_points(spec: ScenarioSpec) -> List[Tuple[Tuple[str, Any], ...]]:
    """All sweep points as ``((axis, value), ...)`` tuples, in cell order.

    Cross-product axes expand first; each resulting point is then
    extended with every zip position (zip values vary fastest).  With no
    zip axes this is exactly the historical cross-product.
    """
    if spec.points:
        if spec.zip_axes:
            zip_points(spec)  # raises: points + zip_axes conflict
        return [tuple(point) for point in spec.points]
    points: List[Tuple[Tuple[str, Any], ...]] = [()]
    for name, values in sweep_axes(spec):
        points = [point + ((name, value),) for point in points for value in values]
    zips = zip_points(spec)
    if zips != [()]:
        points = [point + zipped for point in points for zipped in zips]
    return points


def expand(spec: ScenarioSpec) -> List[Cell]:
    """Enumerate the spec's sweep into :class:`Cell`\\ s (cell order = data order).

    Generic scenarios produce :func:`run_point` cells carrying the spec
    itself; custom-cell scenarios produce ``spec.cell`` cells whose
    kwargs are the axis values plus ``scale``/``seed`` (matching the
    historical per-figure cell functions byte for byte).
    """
    _validate_seeds(spec)
    cells: List[Cell] = []
    for point in _sweep_points(spec):
        key = tuple(value for _name, value in point)
        if spec.cell:
            kwargs: Dict[str, Any] = {name: value for name, value in point}
            kwargs["scale"] = spec.scale
            kwargs["seed"] = spec.seeds[0]
            cells.append(Cell(key, spec.cell, kwargs))
        else:
            kwargs = {"spec": spec}
            kwargs.update({name: value for name, value in point})
            cells.append(Cell(key, f"{_SCN}:run_point", kwargs))
    return cells


# ----------------------------------------------------------------------
# Overrides (--set key=value) and axis-value folding
# ----------------------------------------------------------------------
#: Sub-specs searched (in order) when folding a bare key into the spec.
_SUBSPEC_FIELDS = ("workload", "tpcc_workload", "faults", "elastic", "game", "tpcc")

#: Spec fields that are tuples (a scalar --set value is wrapped).
_TUPLE_FIELDS = {"systems", "seeds", "server_counts", "metrics"}

#: Spec fields --set may not touch (identity/plumbing).  Axis *names*
#: (cross or zip) are still settable — they replace that axis's values.
_PROTECTED_FIELDS = {"name", "cell", "assemble", "render", "axes", "zip_axes", "points"}


def _spec_field_names(obj: Any) -> Tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(obj))


def _set_key(spec: ScenarioSpec, key: str, value: Any) -> ScenarioSpec:
    """Fold one ``key=value`` into the spec (axis values use
    :func:`apply_overrides`; this handles spec/sub-spec fields)."""
    if "." in key:
        sub, _, inner = key.partition(".")
        if sub not in _SUBSPEC_FIELDS:
            raise ScenarioError(
                f"unknown sub-spec {sub!r}; pick from {', '.join(_SUBSPEC_FIELDS)}"
            )
        obj = getattr(spec, sub)
        if obj is None:
            raise ScenarioError(f"scenario {spec.name!r} has no {sub} spec to set")
        if inner not in _spec_field_names(obj):
            raise ScenarioError(
                f"unknown field {inner!r} of {sub}; pick from "
                f"{', '.join(_spec_field_names(obj))}"
            )
        return replace(spec, **{sub: replace(obj, **{inner: value})})
    if key in _PROTECTED_FIELDS:
        raise ScenarioError(f"field {key!r} cannot be overridden")
    if key in _spec_field_names(spec):
        if key in _TUPLE_FIELDS and not isinstance(value, tuple):
            value = (value,)
        return replace(spec, **{key: value})
    for sub in _SUBSPEC_FIELDS:
        obj = getattr(spec, sub)
        if obj is not None and key in _spec_field_names(obj):
            return replace(spec, **{sub: replace(obj, **{key: value})})
    valid = sorted(
        set(_spec_field_names(spec)) - _PROTECTED_FIELDS
        | {
            f"{sub}.{name}"
            for sub in _SUBSPEC_FIELDS
            if getattr(spec, sub, None) is not None
            for name in _spec_field_names(getattr(spec, sub))
        }
    )
    raise ScenarioError(
        f"unknown scenario key {key!r} (axes: "
        f"{', '.join(name for name, _v in spec.axes) or 'none'}; fields include: "
        f"{', '.join(valid[:12])}, ...)"
    )


def _parse_value(text: str) -> Any:
    """Parse one ``--set`` value: literals, with commas making a tuple."""
    import ast

    def one(part: str) -> Any:
        part = part.strip()
        try:
            return ast.literal_eval(part)
        except (ValueError, SyntaxError):
            return part

    if "," in text:
        return tuple(one(part) for part in text.split(",") if part.strip() != "")
    return one(text)


def apply_overrides(
    spec: ScenarioSpec, assignments: Sequence[str]
) -> ScenarioSpec:
    """Apply ``--set key=value`` strings to a spec, returning the new spec.

    ``key`` may name a sweep axis — cross-product or zip — (replacing
    its values), a spec field (``duration_ms``, ``systems``, ...), a
    sub-spec field searched in order (``mtbf_ms`` → ``faults.mtbf_ms``),
    or a dotted sub-spec path (``workload.think_ms``).  Unknown keys
    raise :class:`ScenarioError`.
    """
    for raw in assignments:
        key, sep, text = raw.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ScenarioError(f"--set expects key=value, got {raw!r}")
        value = _parse_value(text)
        axis_names = [name for name, _values in spec.axes]
        zip_names = [name for name, _values in spec.zip_axes]
        if key in axis_names:
            values = value if isinstance(value, tuple) else (value,)
            spec = replace(
                spec,
                axes=tuple(
                    (name, values if name == key else old)
                    for name, old in spec.axes
                ),
            )
        elif key in zip_names:
            # Replacing one zip axis's values; the equal-length check
            # still runs (fail-fast) when the sweep expands.
            values = value if isinstance(value, tuple) else (value,)
            spec = replace(
                spec,
                zip_axes=tuple(
                    (name, values if name == key else old)
                    for name, old in spec.zip_axes
                ),
            )
        else:
            spec = _set_key(spec, key, value)
    return spec


# ----------------------------------------------------------------------
# Generic cell body: build + run + measure one sweep point
# ----------------------------------------------------------------------
def _game_config(game: GameSpec, n_servers: int) -> GameConfig:
    return GameConfig(
        rooms=game.rooms or n_servers,
        players_per_room=game.players_per_room,
        shared_items_per_room=game.shared_items_per_room,
    )


def _tpcc_config(tpcc: TpccSpec, n_servers: int) -> TpccConfig:
    return TpccConfig(
        districts=tpcc.districts or n_servers,
        customers_per_district=tpcc.customers_per_district,
    )


def _metric_values(metrics: Tuple[str, ...], result: Any) -> Any:
    values = tuple(getattr(result, name) for name in metrics)
    return values[0] if len(values) == 1 else values


def _n_clients(wl: WorkloadSpec, per_server: int, n_servers: int) -> int:
    return wl.clients or (wl.clients_per_server or per_server) * n_servers


def _game_app(testbed, system: str, config: GameConfig, weights: str = "uniform"):
    """Deploy the game on the testbed's servers; returns the GameApp."""
    app = build_game(testbed.runtime, config, system, servers=testbed.servers)
    if weights == "geometric":
        # Hot/cold room skew (room 0 hottest): skewed write traffic is
        # what incremental checkpoints exploit — cold rooms' subtrees go
        # unchanged between intervals and are skipped.
        app.set_room_weights([0.5**i for i in range(len(app.rooms))])
    return app


def _tpcc_sampler(testbed, system: str, config: TpccConfig):
    """Deploy TPC-C on the testbed's servers; returns its op sampler."""
    deployment = build_tpcc(
        testbed.runtime,
        config,
        multi_ownership=(system == "aeon"),
        servers=testbed.servers,
        colocate=system in ("aeon", "aeon_so", "eventwave"),
    )
    return TpccWorkload(deployment, system).sample_op


def _start_clients(
    testbed, sample_op, n_clients: int, think_ms: float, stop_at_ms: float, **kwargs
) -> ClosedLoopClients:
    """Start a closed-loop population the driver keeps a handle on
    (retry counters, per-population errors); :func:`run_closed_loop` is
    the whole start/run/measure sequence."""
    clients = ClosedLoopClients(
        testbed.runtime,
        sample_op,
        n_clients=n_clients,
        think_ms=think_ms,
        rng=testbed.rng,
        stop_at_ms=stop_at_ms,
        **kwargs,
    )
    clients.start()
    return clients


def run_point(spec: ScenarioSpec, **point: Any) -> Any:
    """Run one sweep point of a generic scenario (the shared cell body).

    Reserved point keys: ``system``, ``n_servers``, ``seed``.  Any other
    key is folded into the matching spec/sub-spec field (that is how
    axes like ``clients`` or ``mtbf_ms`` parameterize the run).  The
    spec's fault/elastic/app declarations pick the driver — each builds
    testbed + app + clients (+ fault or elasticity machinery), runs the
    simulation and returns the point's plain-data result (metrics
    value(s) or a run dict).
    """
    system = str(point.pop("system", spec.systems[0] if spec.systems else "aeon"))
    n_servers = int(point.pop("n_servers", 0) or spec.servers or 1)
    seed = int(point.pop("seed", spec.seeds[0]))
    for key, value in point.items():
        spec = _set_key(spec, key, value)
    sizing = SCALES[spec.scale]
    if spec.faults.kind != "none":
        return _fault_run(spec, sizing, system, n_servers, seed)
    if spec.elastic is not None:
        return _elastic_run(spec, sizing, system, n_servers, seed)
    if spec.app in ("game", "tpcc"):
        return _throughput_point(spec, sizing, system, n_servers, seed)
    if spec.app == "mixed":
        return _mixed_run(spec, sizing, system, n_servers, seed)
    raise ScenarioError(f"unknown app {spec.app!r}; pick game, tpcc or mixed")


def _throughput_point(
    spec: ScenarioSpec, sizing: Scale, system: str, n_servers: int, seed: int
) -> Any:
    """Closed-loop game or TPC-C run → metric value(s) (fig5a/b, fig6a/b)."""
    # Per app: duration, warmup, clients per server, and the drain tail
    # that lets in-flight events finish after the clients stop.
    duration_ms, warmup_ms, per_server, drain_ms = {
        "game": (sizing.game_duration_ms, sizing.game_warmup_ms,
                 sizing.game_clients_per_server, 2000.0),
        "tpcc": (sizing.tpcc_duration_ms, sizing.tpcc_warmup_ms,
                 sizing.tpcc_clients_per_server, 15000.0),
    }[spec.app]
    with make_testbed(system, n_servers, seed=seed) as testbed:
        if spec.app == "game":
            config = _game_config(spec.game, n_servers)
            sample_op = _game_app(testbed, system, config).sample_op
        else:
            config = _tpcc_config(spec.tpcc, n_servers)
            sample_op = _tpcc_sampler(testbed, system, config)
        result = run_closed_loop(
            testbed,
            system,
            sample_op,
            _n_clients(spec.workload, per_server, n_servers),
            think_ms=spec.workload.think_ms,
            duration_ms=spec.duration_ms or duration_ms,
            warmup_ms=spec.warmup_ms or warmup_ms,
            drain_ms=drain_ms,
        )
        return _metric_values(spec.metrics, result)


def _fault_schedule(
    f: FaultSpec, sizing: Scale, testbed, duration: float
) -> Tuple[FaultSchedule, Dict[str, object]]:
    """The spec's fault schedule and the timeline fields its run dict carries."""
    if f.kind == "churn":
        churn_start = f.churn_start_ms or sizing.churn_start_ms
        schedule = random_churn(
            [server.name for server in testbed.servers],
            duration,
            testbed.rng,
            mean_time_between_crashes_ms=f.mtbf_ms or sizing.churn_mtbf_ms,
            restart_delay_ms=(
                f.restart_ms if f.restart_ms != (0.0, 0.0) else sizing.churn_restart_ms
            ),
            start_ms=churn_start,
        )
        return schedule, {"churn_start_ms": churn_start}
    victim = testbed.servers[f.victim].name
    if f.kind == "crash":
        crash_at = duration * f.crash_frac
        restart_after = duration * f.restart_frac
        schedule = FaultSchedule(
            [ServerCrash(crash_at, victim, restart_after_ms=restart_after)]
        )
        return schedule, {
            "crash_at_ms": crash_at,
            "restart_at_ms": crash_at + restart_after,
            "victim": victim,
        }
    # Asymmetric cut: the detector and eManager lose the victim, but
    # clients (in neither group) still reach it — the old owner keeps
    # receiving traffic while recovery re-places its subtrees.
    partition_at = duration * f.partition_frac
    if f.partition_ms:
        partition_len = f.partition_ms
    elif f.kind == "split_brain":
        # Never heals within the run (including the drain tail).
        partition_len = duration + 3000.0 - partition_at
    else:
        # partition_recovery: heal lands inside the step-down grace
        # window — mid-recovery, after declaration, before restore.
        partition_len = f.lease_ms + f.check_ms + 0.5 * f.fence_grace_ms
    schedule = FaultSchedule(
        [
            NetworkPartition(
                partition_at,
                partition_len,
                group_a=("~fdetector", "~emanager"),
                group_b=(victim,),
            )
        ]
    )
    return schedule, {
        "partition_at_ms": partition_at,
        "partition_heal_ms": partition_at + partition_len,
        "victim": victim,
    }


def _fault_run(
    spec: ScenarioSpec, sizing: Scale, system: str, n_servers: int, seed: int
) -> Dict[str, object]:
    """Game + checkpoints + detector + faults → availability run dict.

    ``faults.kind == "crash"`` reproduces the fig10 single mid-run
    fail-stop timeline; ``"churn"`` reproduces the fig11 sustained
    crash/restart churn scored against the windowed availability SLO.

    ``"split_brain"`` / ``"partition_recovery"`` cut the detector and
    eManager off from one server (clients still reach it — an
    *asymmetric* partition) and exercise the honest-failure knobs:
    fencing epochs, step-down flushes and rolled-back-write accounting.
    """
    f = spec.faults
    if f.kind not in ("crash", "churn", "split_brain", "partition_recovery"):
        raise ScenarioError(f"unknown fault kind {f.kind!r}")
    churn = f.kind == "churn"
    honest = f.fencing or f.honest_recovery or f.crash_drops_state
    duration = spec.duration_ms or (
        sizing.churn_duration_ms if churn else sizing.fault_duration_ms
    )
    with make_testbed(system, n_servers, seed=seed) as testbed:
        runtime = testbed.runtime
        app = _game_app(
            testbed, system, _game_config(spec.game, n_servers), spec.game.room_weights
        )

        storage = CloudStorage(testbed.sim)
        manager = EManager(
            runtime, storage, None, M3_LARGE, max_concurrent_migrations=8
        )
        detector = FailureDetector(
            testbed.sim,
            testbed.network,
            testbed.cluster,
            heartbeat_interval_ms=f.heartbeat_ms,
            lease_ms=f.lease_ms,
            check_interval_ms=f.check_ms,
        )
        checkpoint_ms = f.checkpoint_ms or (
            sizing.churn_checkpoint_ms if churn else sizing.fault_checkpoint_ms
        )
        manager.enable_fault_tolerance(
            detector,
            checkpoint_interval_ms=checkpoint_ms,
            roots=[room.cid for room in app.rooms],
            # Orleans has no global lock order: a subtree-locking snapshot
            # deadlocks against its per-call turn locks, so it gets the
            # per-grain (fuzzy) persistence real Orleans offers.
            consistent_checkpoints=(system != "orleans"),
            checkpoint_mode=f.checkpoint_mode,
            fencing=f.fencing,
            # False means "unset" here: the eManager then defaults honest
            # recovery to the fencing flag, so fencing alone is coherent.
            honest_recovery=(f.honest_recovery or None),
            crash_drops_state=f.crash_drops_state,
            fence_grace_ms=f.fence_grace_ms,
        )
        detector.start()

        schedule, timeline = _fault_schedule(f, sizing, testbed, duration)
        injector = FaultInjector(testbed.sim, testbed.network, testbed.cluster, schedule)
        injector.start()

        wl = spec.workload
        clients = _start_clients(
            testbed,
            app.sample_op,
            wl.clients or (sizing.churn_clients if churn else sizing.fault_clients),
            wl.think_ms,
            duration,
            max_retries=wl.max_retries,
        )
        testbed.sim.run(until=duration + 3000.0)
        detector.stop()
        manager.stop()

        goodput = runtime.latency.windowed_count(
            f.window_ms, duration, exclude_tag=FAILED_TAG
        )
        p99 = runtime.latency.windowed_percentile(
            99.0, f.window_ms, duration, exclude_tag=FAILED_TAG
        )
        if churn:
            churn_start = timeline["churn_start_ms"]
            slo = availability_slo(
                goodput.points,
                p99.points,
                baseline_from_ms=churn_start * 0.3,
                baseline_to_ms=churn_start,
                eval_from_ms=churn_start,
                eval_to_ms=duration,
                # A window is available at >=85% of fault-free goodput with p99
                # within 3x of baseline (20 ms floor): strict enough that the
                # detection+recovery gap after each crash shows up, loose enough
                # that steady-state noise does not.
                goodput_fraction=f.goodput_fraction,
                p99_multiplier=f.p99_multiplier,
                p99_floor_ms=f.p99_floor_ms,
                # Lost *work* (acked writes rolled back at crash/recovery) rides
                # along only under honest semantics; None keeps the legacy fig11
                # payload byte-identical.
                lost_work=(runtime.writes_rolled_back if honest else None),
            )
            detect_latencies = [
                d.latency_ms for d in detector.detections if d.latency_ms is not None
            ]
            return {
                "system": system,
                "checkpoint_mode": f.checkpoint_mode,
                "duration_ms": duration,
                **timeline,
                "crashes": len(schedule),
                "goodput": goodput.points,
                "p99": p99.points,
                "slo": slo.as_dict(),
                "detections": len(detector.detections),
                "mean_detection_latency_ms": mean(detect_latencies),
                "redeclarations": detector.redeclarations,
                "recoveries": manager.recoveries,
                "contexts_recovered": manager.contexts_recovered,
                "contexts_restored_without_checkpoint": (
                    manager.contexts_restored_without_checkpoint
                ),
                "cache_invalidations": manager.cache_invalidations,
                "events_failed": runtime.events_failed,
                "client_errors": len(clients.errors),
                "client_retries": clients.retries,
                "checkpoints_taken": manager.checkpoints_taken,
                "checkpoints_skipped": manager.checkpoints_skipped,
                "checkpoint_bytes_written": manager.checkpoint_bytes_written,
                "recovery_log": manager.recovery_log,
                "fault_log": injector.log,
            }
        # What the crash and the partition timelines both observed.
        observed = {
            "goodput": goodput.points,
            "p99": p99.points,
            "events_failed": runtime.events_failed,
            "client_errors": len(clients.errors),
            "client_retries": clients.retries,
            "detections": [
                {
                    "server": d.server,
                    "detected_at_ms": d.detected_at_ms,
                    "latency_ms": d.latency_ms,
                }
                for d in detector.detections
            ],
        }
        if f.kind in ("split_brain", "partition_recovery"):
            return {
                "system": system,
                "duration_ms": duration,
                **timeline,
                "fencing": f.fencing,
                **observed,
                "false_detections": manager.false_detections,
                "lost_updates": runtime.writes_rolled_back,
                "fenced_writes": (
                    manager.fencing.rejected if manager.fencing is not None else 0
                ),
                "flush_restores": manager.flush_restores,
                "contexts_recovered": manager.contexts_recovered,
                "recoveries": manager.recovery_log,
                "checkpoints_taken": manager.checkpoints_taken,
                "fault_log": injector.log,
            }
        result = {
            "system": system,
            "duration_ms": duration,
            **timeline,
            **observed,
            "recoveries": manager.recovery_log,
            "contexts_recovered": manager.contexts_recovered,
            "checkpoints_taken": manager.checkpoints_taken,
            "fault_log": injector.log,
        }
        if honest:
            # Conditional: legacy fig10 payloads stay byte-identical.
            result["lost_work"] = runtime.writes_rolled_back
        return result


def _ramp_profile(wl: WorkloadSpec, duration_ms: float) -> RampProfile:
    if wl.profile == "diurnal":
        return RampProfile.diurnal(
            duration_ms,
            machines=wl.machines,
            min_per_machine=wl.min_per_machine,
            max_per_machine=wl.max_per_machine,
            cycles=wl.cycles,
        )
    if wl.profile == "normal_peak":
        return RampProfile.normal_peak(
            duration_ms,
            machines=wl.machines,
            min_per_machine=wl.min_per_machine,
            max_per_machine=wl.max_per_machine,
        )
    raise ScenarioError(f"unknown ramp profile {wl.profile!r}")


def _elastic_run(
    spec: ScenarioSpec, sizing: Scale, system: str, n_servers: int, seed: int
) -> Dict[str, object]:
    """Game under profile-following load on an elastic or a static fleet (§6.2).

    With ``spec.elastic`` the fleet starts at ``n_servers`` and the
    eManager grows/shrinks it against that SLA policy while clients
    follow the workload's ramp profile (e.g. the diurnal wave); with
    ``None`` — fig7/table1's fixed setups, see :func:`_elastic_cell` —
    the fleet stays at ``n_servers`` and is scored against the default
    SLA.
    """
    e = spec.elastic
    wl = spec.workload
    duration = spec.duration_ms or sizing.elastic_duration_ms
    itype = INSTANCE_TYPES[spec.instance] if spec.instance else M3_LARGE
    with make_testbed(system, n_servers, instance_type=itype, seed=seed) as testbed:
        app = _game_app(
            testbed, system, _game_config(spec.game, n_servers), spec.game.room_weights
        )
        manager = None
        if e is not None:
            testbed.cluster.boot_delay_ms = e.boot_delay_ms
            storage = CloudStorage(testbed.sim)
            policy = SLAPolicy(
                sla_ms=e.sla_ms,
                scale_out_step=e.scale_out_step,
                min_servers=e.min_servers,
                max_servers=e.max_servers,
                scale_in_fraction=e.scale_in_fraction,
                headroom=e.headroom,
            )
            manager = EManager(
                testbed.runtime,
                storage,
                policy,
                itype,
                report_interval_ms=e.report_interval_ms,
                max_concurrent_migrations=e.max_concurrent_migrations,
            )
            manager.start()
        profile = _ramp_profile(wl, duration)
        clients = DynamicClients(
            testbed.runtime,
            app.sample_op,
            profile,
            think_ms=wl.think_ms,
            rng=testbed.rng,
            stop_at_ms=duration,
        )
        clients.start()
        testbed.sim.run(until=duration + (spec.drain_ms or 5000.0))
        if manager is not None:
            manager.stop()
            fleet = manager.server_count_series
            server_series, avg_servers = fleet.points, fleet.mean_value()
            peak_servers = fleet.max_value()
        else:
            server_series = None
            avg_servers = peak_servers = float(len(testbed.cluster.alive_servers()))
        latency = testbed.runtime.latency
        report = sla_report(
            spec.name, latency, (e or ElasticSpec()).sla_ms, avg_servers, since_ms=0.0
        )
        return {
            "system": system,
            # Mean latency per 1 s bucket.
            "latency_series": latency.windowed_mean(1000.0, duration).points,
            "server_series": server_series,
            "client_series": clients.active_series,
            "sla": report,
            "avg_servers": avg_servers,
            "peak_servers": peak_servers,
            "peak_clients": profile.peak(),
        }


#: Tag sets splitting the mixed co-tenancy latency stream per app.
GAME_TAGS = ("private", "shared", "readonly")
TPCC_TAGS = ("new_order", "payment", "order_status", "delivery", "stock_level")


def _mixed_run(
    spec: ScenarioSpec, sizing: Scale, system: str, n_servers: int, seed: int
) -> Dict[str, object]:
    """Game + TPC-C co-tenants on one fleet → per-app and combined metrics.

    Both applications deploy on the *same* servers and runtime; two
    closed-loop client populations (with distinct RNG stream prefixes)
    drive them concurrently.  Per-app numbers come from splitting the
    shared latency stream by *top-level* operation tag; the combined
    numbers count every completion, including TPC-C sub-transactions
    (``new_order/sub``), so the per-app splits sum to at most the
    combined count.
    """
    if system == "eventwave":
        # EventWave sequences every event through the single root of ONE
        # ownership tree; two co-tenant applications mean two roots
        # ('castle' + 'warehouse'), which its runtime model rejects on
        # every call.  Co-tenancy is simply not expressible there.
        raise ScenarioError(
            "mixed co-tenancy cannot run on 'eventwave': its runtime "
            "requires exactly one root context, and two applications "
            "create two ownership roots"
        )
    wl_game, wl_tpcc = spec.workload, spec.tpcc_workload
    duration = spec.duration_ms or sizing.tpcc_duration_ms
    warmup = spec.warmup_ms or sizing.tpcc_warmup_ms
    with make_testbed(system, n_servers, seed=seed) as testbed:
        game = _game_app(testbed, system, _game_config(spec.game, n_servers))
        tpcc_op = _tpcc_sampler(testbed, system, _tpcc_config(spec.tpcc, n_servers))
        n_game = _n_clients(wl_game, sizing.game_clients_per_server, n_servers)
        n_tpcc = _n_clients(wl_tpcc, sizing.tpcc_clients_per_server, n_servers)
        game_clients = _start_clients(
            testbed, game.sample_op, n_game, wl_game.think_ms, duration,
            name_prefix=wl_game.name_prefix,
        )
        tpcc_clients = _start_clients(
            testbed, tpcc_op, n_tpcc, wl_tpcc.think_ms, duration,
            name_prefix=wl_tpcc.name_prefix,
        )
        testbed.sim.run(until=duration + (spec.drain_ms or 15000.0))
        combined = measure(system, testbed, n_game + n_tpcc, warmup, duration)

        window_s = (duration - warmup) / 1000.0

        def split(tags: Tuple[str, ...]) -> Dict[str, float]:
            lats = testbed.runtime.latency.latencies_between(
                warmup, duration, tags=tags
            )
            lats.sort()
            return {
                "completed": len(lats),
                "throughput_per_s": len(lats) / window_s if window_s > 0 else 0.0,
                "mean_latency_ms": mean(lats),
                "p99_latency_ms": percentile(lats, 99.0, presorted=True),
            }

        return {
            "system": system,
            "n_servers": n_servers,
            "game_clients": n_game,
            "tpcc_clients": n_tpcc,
            "game": split(GAME_TAGS),
            "tpcc": split(TPCC_TAGS),
            "combined": {
                "completed": combined.completed,
                "throughput_per_s": combined.throughput_per_s,
                "mean_latency_ms": combined.mean_latency_ms,
                "p99_latency_ms": combined.p99_latency_ms,
            },
            "game_errors": len(game_clients.errors),
            "tpcc_errors": len(tpcc_clients.errors),
        }


# ----------------------------------------------------------------------
# Custom cell bodies (the figures whose wiring predates — and outlives —
# the generic builder: elasticity setups, migration pumps, ablations)
# ----------------------------------------------------------------------
def _elastic_cell(setup: str, rep: int, scale: str, seed: int) -> Dict[str, object]:
    """One (setup, repetition) sub-cell of fig7/table1.

    ``setup`` is 'elastic' or a fixed server count.  ``rep`` shards a
    setup into independent seed replicas (``seed + rep``) so ``--set
    rep=0,1,2`` splits the two longest-running experiments into cells
    ``--jobs`` can actually parallelise.  The default single ``rep=0``
    reproduces the historical monolithic cell byte for byte.
    """
    elastic = setup == "elastic"
    spec = ScenarioSpec(
        name=setup,
        title="",
        instance="m1.small",
        # 32 rooms so the fleet can usefully grow beyond 16 servers.
        game=GameSpec(rooms=32, players_per_room=4, shared_items_per_room=2),
        # The default ramp: a normal peak of 1→16 clients on 8 machines.
        workload=WorkloadSpec(kind="ramp", think_ms=12.0),
        elastic=ElasticSpec() if elastic else None,
    )
    run = _elastic_run(
        spec, SCALES[scale], "aeon", 8 if elastic else int(setup), seed + rep
    )
    kept = ("latency_series", "server_series", "client_series", "sla")
    return {"setup": setup, **{key: run[key] for key in kept}}


def _migration_host(testbed, itype: InstanceType) -> MigrationCoordinator:
    """A migration coordinator on its own ``~emanager`` host of ``itype``."""
    storage = CloudStorage(testbed.sim)
    host = Server(testbed.sim, "~emanager", itype)
    testbed.network.register(host.name, host.mailbox, itype)
    return MigrationCoordinator(testbed.runtime, storage, host)


def _fig8_cell(
    n_migrations: int, scale: str, seed: int
) -> List[Tuple[float, float]]:
    """One fig8 run: throughput series while migrating ``n_migrations`` Rooms."""
    sizing = SCALES[scale]
    duration = sizing.migration_duration_ms
    with make_testbed("aeon", 20, instance_type=M1_SMALL, seed=seed) as testbed:
        config = GameConfig(rooms=20, players_per_room=4, shared_items_per_room=2)
        app = _game_app(testbed, "aeon", config)
        coordinator = _migration_host(testbed, M3_LARGE)
        _start_clients(testbed, app.sample_op, 120, 10.0, duration)

        def migrate_rooms():
            yield testbed.sim.timeout(duration * 0.4)
            servers = testbed.servers
            handles = []
            for i in range(n_migrations):
                src_room = f"room-{i}"
                dst = servers[(i + 1) % len(servers)]
                if testbed.runtime.placement[src_room] == dst.name:
                    dst = servers[(i + 2) % len(servers)]
                handles.append(coordinator.migrate(src_room, dst))
            for handle in handles:
                yield handle

        testbed.sim.process(migrate_rooms())
        testbed.sim.run(until=duration + 5000.0)
        window = testbed.runtime.latency.windowed_rate(250.0, duration)
        return window.points


def _fig9_cell(itype_name: str, size_bytes: int, scale: str, seed: int) -> float:
    """One fig9 grid point: eManager migration throughput (contexts/s)."""
    sizing = SCALES[scale]
    batch = sizing.emanager_batch
    itype = INSTANCE_TYPES[itype_name]
    with make_testbed("aeon", 2, instance_type=itype, seed=seed) as testbed:
        class Payload(Room):
            pass

        Payload.size_bytes = size_bytes
        refs = []
        for i in range(batch):
            refs.append(
                testbed.runtime.create_context(
                    Payload, server=testbed.servers[0],
                    name=f"payload-{i}", args=(i,),
                )
            )
        coordinator = _migration_host(testbed, itype)

        def pump():
            window = 4  # concurrent migrations in flight
            pending = []
            for ref in refs:
                pending.append(coordinator.migrate(ref.cid, testbed.servers[1]))
                if len(pending) >= window:
                    yield pending.pop(0)
            for handle in pending:
                yield handle

        start = testbed.sim.now
        testbed.sim.run_process(pump())
        elapsed_s = (testbed.sim.now - start) / 1000.0
        return batch / elapsed_s if elapsed_s > 0 else 0.0


def _massive_run(flavor: str, scale: str, seed: int) -> Dict[str, object]:
    """One massive-tier run: bulk-registered leaves under closed-loop load.

    The scale preset's ``massive_*`` sizing drives everything: a
    ``massive_contexts``-leaf tree (see :mod:`repro.apps.massive`) is
    registered in bulk — no instances, no locks —
    and ``massive_clients`` closed-loop clients sample uniformly over
    the population, materializing only the leaves they actually touch.
    The latency recorder runs with a low sampling threshold so
    percentile queries answer from its bounded reservoir, and the
    returned ``checksum`` (materialized leaf state in sorted-cid order
    plus the completion count) pins the run's determinism.
    """
    sizing = SCALES[scale]
    with make_testbed("aeon", sizing.massive_servers, seed=seed) as testbed:
        # Swap the recorder before any event completes: massive runs engage
        # reservoir sampling almost immediately instead of at the default
        # exact-mode threshold, so past it only one end time per
        # completion is kept (start times and tags live in the reservoir).
        testbed.runtime.latency = LatencyRecorder(sample_threshold=65536)
        config = MassiveConfig(contexts=sizing.massive_contexts, flavor=flavor)
        app = build_massive(testbed.runtime, config, testbed.servers)
        result = run_closed_loop(
            testbed,
            "aeon",
            app.sample_op,
            sizing.massive_clients,
            think_ms=sizing.massive_think_ms,
            duration_ms=sizing.massive_duration_ms,
            warmup_ms=sizing.massive_warmup_ms,
            drain_ms=2000.0,
        )
        runtime = testbed.runtime
        return {
            "flavor": flavor,
            "contexts": runtime.context_count(),
            "materialized": len(runtime.instances),
            "servers": sizing.massive_servers,
            "clients": result.n_clients,
            "completed": result.completed,
            "throughput_per_s": result.throughput_per_s,
            "mean_latency_ms": result.mean_latency_ms,
            "p50_latency_ms": result.p50_latency_ms,
            "p99_latency_ms": result.p99_latency_ms,
            "sampling": runtime.latency.sampling,
            "errors": result.errors,
            "checksum": run_checksum(runtime, app),
        }


def _massive_game_cell(rep: int, scale: str, seed: int) -> Dict[str, object]:
    """One repetition of the massive game-flavor run (``seed + rep``)."""
    return _massive_run("game", scale, seed + rep)


def _massive_tpcc_cell(rep: int, scale: str, seed: int) -> Dict[str, object]:
    """One repetition of the massive TPC-C-flavor run (``seed + rep``)."""
    return _massive_run("tpcc", scale, seed + rep)


def _ablation_cell(early_release: bool, scale: str, seed: int) -> float:
    """One ablation run: TPC-C throughput with the given release mode."""
    sizing = SCALES[scale]
    costs = DEFAULT_COSTS.with_(early_release=early_release)
    with make_testbed("aeon_so", 4, seed=seed, costs=costs) as testbed:
        config = TpccConfig(districts=4, customers_per_district=10)
        result = run_closed_loop(
            testbed,
            "aeon_so",
            _tpcc_sampler(testbed, "aeon_so", config),
            sizing.tpcc_clients_per_server * 4,
            think_ms=5.0,
            duration_ms=sizing.tpcc_duration_ms,
            warmup_ms=sizing.tpcc_warmup_ms,
            drain_ms=15000.0,
        )
        return result.throughput_per_s


# ----------------------------------------------------------------------
# Assembly: cell results (in cell order) -> figure data
# ----------------------------------------------------------------------
def _grouped(cells, results, width: int) -> Dict[Tuple, List[Any]]:
    """Cell values grouped by the first ``width`` key parts, groups in
    first-seen order and values in cell order."""
    groups: Dict[Tuple, List[Any]] = {}
    for cell, result in zip(cells, results):
        groups.setdefault(cell.key[:width], []).append(result.value)
    return groups


def _assemble_curve(spec, cells, results):
    """``{system: [(x, value), ...]}`` — systems × one x axis (+ seeds).

    With a swept ``seed`` axis the metric is averaged across seeds per
    (system, x) point; a single seed passes values through untouched.
    """
    curves: Dict[str, List[Tuple[Any, Any]]] = {s: [] for s in spec.systems}
    for (system, x), values in _grouped(cells, results, 2).items():
        value = values[0] if len(values) == 1 else mean(values)
        curves[system].append((x, value))
    return curves


def _assemble_xy(spec, cells, results):
    """``{system: [metric-tuple, ...]}`` in sweep order (fig5b/fig6b)."""
    curves: Dict[str, List[Any]] = {s: [] for s in spec.systems}
    for cell, result in zip(cells, results):
        curves[cell.key[0]].append(result.value)
    return curves


def _assemble_by_first_key(spec, cells, results):
    """``{key[0]: run}`` in cell order (fig10-style per-system runs)."""
    return {
        cell.key[0]: result.value for cell, result in zip(cells, results)
    }


_GENERIC_ASSEMBLERS = {
    "curve": _assemble_curve,
    "xy": _assemble_xy,
    "runs": _assemble_by_first_key,
    "elastic": _assemble_by_first_key,
    "mixed": _assemble_by_first_key,
}


def _aggregate_elastic_runs(runs: List[Dict[str, object]]) -> Dict[str, object]:
    """Average multi-rep elastic runs (single-rep passes through untouched).

    The latency series is averaged pointwise by window time; the
    server/client series stay rep 0's (fleet decisions are per-replica
    trajectories, not averageable); SLA scalars average across reps.
    """
    if len(runs) == 1:
        return runs[0]
    by_time: Dict[float, List[float]] = {}
    for run in runs:
        for t, value in run["latency_series"]:
            by_time.setdefault(t, []).append(value)
    first = runs[0]
    reports = [run["sla"] for run in runs]
    return {
        "setup": first["setup"],
        "reps": len(runs),
        "latency_series": [(t, mean(vals)) for t, vals in sorted(by_time.items())],
        "server_series": first["server_series"],
        "client_series": first["client_series"],
        "sla": {
            "setup": reports[0].setup,
            "sla_ms": reports[0].sla_ms,
            "total_requests": sum(r.total_requests for r in reports),
            "violations": sum(r.violations for r in reports),
            "violation_pct": mean([r.violation_pct for r in reports]),
            "avg_servers": mean([r.avg_servers for r in reports]),
        },
    }


def _assemble_fig7(spec, cells, results):
    """``{setup: run}`` — multi-rep setups aggregate via the rep shards."""
    return {
        setup: _aggregate_elastic_runs(runs)
        for (setup,), runs in _grouped(cells, results, 1).items()
    }


def _assemble_table1(spec, cells, results):
    """Table 1 rows: one per setup, averaged across rep shards."""
    rows = []
    for (setup,), runs in _grouped(cells, results, 1).items():
        reports = [run["sla"] for run in runs]
        rows.append(
            {
                "setup": f"{setup}-server" if setup != "elastic" else "Elastic",
                "violation_pct": mean([r.violation_pct for r in reports]),
                "avg_servers": mean([r.avg_servers for r in reports]),
                "requests": sum(r.total_requests for r in reports),
            }
        )
    return rows


def _assemble_fig8(spec, cells, results):
    return {
        f"{cell.key[0]} contexts": result.value
        for cell, result in zip(cells, results)
    }


_FIG9_SIZE_LABELS = {1024: "1KB", 1_000_000: "1MB"}


def _assemble_fig9(spec, cells, results):
    out: Dict[str, Dict[str, float]] = {}
    for cell, result in zip(cells, results):
        itype, size_bytes = cell.key[0], cell.key[1]
        label = _FIG9_SIZE_LABELS.get(size_bytes, f"{size_bytes}B")
        out.setdefault(itype, {})[label] = result.value
    return out


def _assemble_fig11(spec, cells, results):
    systems: Dict[str, object] = {}
    aeon_full = None
    for cell, result in zip(cells, results):
        system, mode = cell.key[0], cell.key[1]
        if mode == "delta":
            systems[system] = result.value
        else:
            aeon_full = result.value
    return {
        "window_ms": spec.faults.window_ms,
        "systems": systems,
        "aeon_full": aeon_full,
    }


def _assemble_ablation(spec, cells, results):
    labels = {True: "chain-release", False: "hold-till-commit"}
    return {
        labels[cell.key[0]]: result.value
        for cell, result in zip(cells, results)
    }


def _assemble_split_brain(spec, cells, results):
    """``{"fenced"/"unfenced": run}`` plus the lost-updates invariant.

    The invariant the scenario exists to prove: **zero** lost updates
    with fencing on (the step-down flush preserves every acked write),
    a **nonzero** count with fencing off (restore rolls back to the
    last periodic checkpoint while the old owner was still serving).
    """
    runs = {
        "fenced" if cell.key[1] else "unfenced": result.value
        for cell, result in zip(cells, results)
    }
    lost = {label: run["lost_updates"] for label, run in runs.items()}
    return {
        "runs": runs,
        "invariant": {
            "fenced_lost_updates": lost.get("fenced"),
            "unfenced_lost_updates": lost.get("unfenced"),
            "zero_loss_with_fencing": lost.get("fenced") == 0,
            "loss_without_fencing": lost.get("unfenced", 0) > 0,
        },
    }


def _assemble_massive(spec, cells, results):
    """The single run dict (one rep) or ``{rep: run}`` (sharded reps)."""
    if len(results) == 1:
        return results[0].value
    return {f"rep{cell.key[0]}": r.value for cell, r in zip(cells, results)}


def _render_massive(spec, data) -> str:
    runs = [data] if "contexts" in data else list(data.values())
    lines = [spec.title, ""]
    for run in runs:
        lines.append(
            f"  {run['flavor']:>5}: {run['contexts']:,} contexts "
            f"({run['materialized']:,} materialized) on {run['servers']} "
            f"servers, {run['clients']} clients"
        )
        lines.append(
            f"         {run['throughput_per_s']:,.1f} ev/s  "
            f"p50={run['p50_latency_ms']:.2f} ms  "
            f"p99={run['p99_latency_ms']:.2f} ms  "
            f"sampling={run['sampling']}  errors={run['errors']}"
        )
        lines.append(f"         checksum {run['checksum'][:16]}…")
    return "\n".join(lines)


def _assemble_churn_sweep(spec, cells, results):
    rows = []
    runs: Dict[str, object] = {}
    for cell, result in zip(cells, results):
        run = result.value
        mtbf = cell.key[-1]
        runs[f"{run['system']}@{mtbf:g}"] = run
        rows.append(
            {
                "system": run["system"],
                "mtbf_ms": mtbf,
                "crashes": run["crashes"],
                "availability_pct": run["slo"]["availability_pct"],
                "mean_detection_latency_ms": run["mean_detection_latency_ms"],
                "contexts_recovered": run["contexts_recovered"],
                "events_failed": run["events_failed"],
                "checkpoint_bytes_written": run["checkpoint_bytes_written"],
            }
        )
    return {"window_ms": spec.faults.window_ms, "rows": rows, "runs": runs}


def assemble_scenario(spec: ScenarioSpec, cells, results):
    """Assemble cell results (in cell order) into the figure data."""
    if spec.assemble:
        return _resolve(spec.assemble)(spec, cells, results)
    try:
        assembler = _GENERIC_ASSEMBLERS[spec.output]
    except KeyError:
        raise ScenarioError(
            f"scenario {spec.name!r}: no generic assembler for output "
            f"{spec.output!r} and no custom 'assemble' hook"
        ) from None
    return assembler(spec, cells, results)


# ----------------------------------------------------------------------
# Rendering: figure data -> text (keyed off the spec's output shape)
# ----------------------------------------------------------------------
def _render_grid_curve(spec, data) -> str:
    systems = list(data)
    xs = [x for x, _ in data[systems[0]]]
    rows = []
    for i, x in enumerate(xs):
        rows.append([x] + [round(data[s][i][1]) for s in systems])
    return format_table(spec.title, [spec.x_name] + systems, rows)


def _render_xy_curve(spec, data) -> str:
    lines = [spec.title, ""]
    for system, points in data.items():
        lines.append(f"[{system}]")
        for x, y in points:
            lines.append(f"  {x:10.1f}  {y:10.2f}")
        lines.append("")
    return "\n".join(lines)


def _sla_field(sla, name):
    """Read an SLA field from a SlaReport or an aggregated-rep dict."""
    return sla[name] if isinstance(sla, dict) else getattr(sla, name)


def _render_fig7(spec, data) -> str:
    lines = [spec.title, ""]
    for setup, run in data.items():
        values = [v for _t, v in run["latency_series"]]
        lines.append(
            f"  {setup:>8}: mean={mean(values):6.2f} ms  "
            f"peak={max(values) if values else 0:6.2f} ms  "
            f"violations={_sla_field(run['sla'], 'violation_pct'):5.1f}%"
        )
    return "\n".join(lines)


def _render_table1(spec, data) -> str:
    return format_table(
        spec.title,
        ["setup", "% requests > SLA", "avg servers", "requests"],
        [
            [r["setup"], round(r["violation_pct"], 1), round(r["avg_servers"], 1), r["requests"]]
            for r in data
        ],
    )


def _render_fig8(spec, data) -> str:
    lines = [spec.title, ""]
    for label, points in data.items():
        values = [v for _t, v in points]
        steady = mean(values[:4]) if len(values) >= 4 else mean(values)
        dip = min(values) if values else 0.0
        lines.append(f"  {label:>12}: steady={steady:7.1f}/s  dip={dip:7.1f}/s")
    return "\n".join(lines)


def _render_fig9(spec, data) -> str:
    rows = [
        [itype, round(sizes["1KB"], 1), round(sizes["1MB"], 1)]
        for itype, sizes in data.items()
    ]
    return format_table(spec.title, ["instance", "1KB", "1MB"], rows)


def fig10_phases(run: Dict[str, object]) -> Dict[str, float]:
    """Mean goodput of one fig10 run before / during / after the outage.

    ``pre`` skips the first 10% as warmup; ``outage`` spans the crash to
    the end of recovery (or the detector lease window when no recovery
    ran); ``post`` starts 1 s after recovery finished.
    """
    crash = float(run["crash_at_ms"])
    duration = float(run["duration_ms"])
    recovery_end = crash
    for entry in run["recoveries"]:
        finished = entry.get("finished_ms")
        if finished is not None and finished > recovery_end:
            recovery_end = finished
    if recovery_end <= crash:
        recovery_end = crash + 1500.0
    goodput = run["goodput"]
    pre = [v for t, v in goodput if duration * 0.1 <= t < crash]
    outage = [v for t, v in goodput if crash <= t < recovery_end]
    post = [v for t, v in goodput if recovery_end + 1000.0 <= t < duration]
    return {
        "pre": mean(pre),
        "outage": mean(outage),
        "post": mean(post),
        "recovery_end_ms": recovery_end,
    }


def _render_fig10(spec, data) -> str:
    rows = []
    for system, run in data.items():
        phases = fig10_phases(run)
        detections = run["detections"]
        detect_ms = mean(
            [d["latency_ms"] for d in detections if d["latency_ms"] is not None]
        )
        rows.append(
            [
                system,
                round(phases["pre"], 1),
                round(phases["outage"], 1),
                round(phases["post"], 1),
                round(detect_ms, 1),
                run["contexts_recovered"],
                run["events_failed"],
            ]
        )
    return format_table(
        spec.title,
        ["system", "pre-crash", "outage", "recovered", "detect ms", "ctx restored", "failed"],
        rows,
    )


def _render_fig11(spec, data) -> str:
    rows = []
    runs = dict(data["systems"])
    runs["aeon (full ckpt)"] = data["aeon_full"]
    for label, run in runs.items():
        slo = run["slo"]
        rows.append(
            [
                label,
                round(slo["availability_pct"], 1),
                round(slo["baseline_goodput_per_s"], 1),
                round(slo["goodput_target_per_s"], 1),
                round(run["mean_detection_latency_ms"], 1),
                run["contexts_recovered"],
                run["events_failed"],
                run["checkpoints_taken"],
                run["checkpoints_skipped"],
                run["checkpoint_bytes_written"],
            ]
        )
    table = format_table(
        spec.title,
        [
            "system",
            "avail %",
            "base ev/s",
            "target ev/s",
            "detect ms",
            "ctx restored",
            "failed",
            "ckpts",
            "skipped",
            "ckpt bytes",
        ],
        rows,
    )
    delta_bytes = data["systems"]["aeon"]["checkpoint_bytes_written"]
    full_bytes = data["aeon_full"]["checkpoint_bytes_written"]
    saving = 100.0 * (1.0 - delta_bytes / full_bytes) if full_bytes else 0.0
    return (
        table
        + f"\n\ndelta checkpoints: {delta_bytes:,} bytes vs full "
        + f"{full_bytes:,} bytes ({saving:.1f}% saved on identical churn)"
    )


def _render_split_brain(spec, data) -> str:
    rows = []
    for label in ("fenced", "unfenced"):
        run = data["runs"].get(label)
        if run is None:
            continue
        rows.append(
            [
                label,
                run["lost_updates"],
                run["fenced_writes"],
                run["flush_restores"],
                run["contexts_recovered"],
                run["false_detections"],
                run["events_failed"],
                run["client_retries"],
            ]
        )
    table = format_table(
        spec.title,
        ["mode", "lost upd", "fenced wr", "flush rst", "ctx restored",
         "false det", "failed", "retries"],
        rows,
    )
    inv = data["invariant"]
    return (
        table
        + f"\n\nzero lost updates with fencing: {inv['zero_loss_with_fencing']}"
        + f"; lost updates without fencing: {inv['unfenced_lost_updates']}"
    )


def _render_partition_recovery(spec, data) -> str:
    rows = []
    for system, run in data.items():
        rows.append(
            [
                system,
                round(run["partition_at_ms"], 1),
                round(run["partition_heal_ms"], 1),
                run["lost_updates"],
                run["flush_restores"],
                run["contexts_recovered"],
                run["false_detections"],
                run["events_failed"],
            ]
        )
    return format_table(
        spec.title,
        ["system", "cut ms", "heal ms", "lost upd", "flush rst",
         "ctx restored", "false det", "failed"],
        rows,
    )


def _render_ablation(spec, data) -> str:
    return format_table(
        spec.title,
        ["mode", "events/s"],
        [[k, round(v, 1)] for k, v in data.items()],
    )


def _render_churn_sweep(spec, data) -> str:
    rows = [
        [
            r["system"],
            round(r["mtbf_ms"]),
            r["crashes"],
            round(r["availability_pct"], 1),
            round(r["mean_detection_latency_ms"], 1),
            r["contexts_recovered"],
            r["events_failed"],
            r["checkpoint_bytes_written"],
        ]
        for r in data["rows"]
    ]
    return format_table(
        spec.title,
        ["system", "MTBF ms", "crashes", "avail %", "detect ms",
         "ctx restored", "failed", "ckpt bytes"],
        rows,
    )


def _render_mixed(spec, data) -> str:
    rows = []
    for system, run in data.items():
        rows.append(
            [
                system,
                round(run["game"]["throughput_per_s"], 1),
                round(run["game"]["p99_latency_ms"], 2),
                round(run["tpcc"]["throughput_per_s"], 1),
                round(run["tpcc"]["p99_latency_ms"], 2),
                round(run["combined"]["throughput_per_s"], 1),
                run["game_errors"] + run["tpcc_errors"],
            ]
        )
    return format_table(
        spec.title,
        ["system", "game ev/s", "game p99", "tpcc txn/s", "tpcc p99",
         "combined/s", "errors"],
        rows,
    )


def _render_elastic(spec, data) -> str:
    lines = [spec.title, ""]
    for system, run in data.items():
        values = [v for _t, v in run["latency_series"]]
        lines.append(
            f"  {system:>10}: mean={mean(values):6.2f} ms  "
            f"peak={max(values) if values else 0:6.2f} ms  "
            f"violations={_sla_field(run['sla'], 'violation_pct'):5.1f}%  "
            f"servers avg={run['avg_servers']:.1f} peak={run['peak_servers']:.0f}  "
            f"clients peak={run['peak_clients']}"
        )
    return "\n".join(lines)


_GENERIC_RENDERERS = {
    "curve": _render_grid_curve,
    "xy": _render_xy_curve,
    "runs": _render_fig10,
    "elastic": _render_elastic,
    "mixed": _render_mixed,
}


def render_scenario(spec: ScenarioSpec, data) -> str:
    """Human-readable rendering of a scenario's assembled data."""
    if spec.render:
        return _resolve(spec.render)(spec, data)
    renderer = _GENERIC_RENDERERS.get(spec.output)
    if renderer is None:
        return repr(data)
    return renderer(spec, data)


# ----------------------------------------------------------------------
# JSON conversion + the one-call driver
# ----------------------------------------------------------------------
def _jsonable(value: Any) -> Any:
    """Recursively convert experiment results to JSON-encodable data."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _jsonable(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def prepare_scenario(
    scenario: Any,
    scale: Optional[str] = None,
    seed: Optional[int] = None,
    overrides: Sequence[str] = (),
) -> ScenarioSpec:
    """Resolve a name/spec and apply scale/seed/``--set`` overrides."""
    spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
    if scale is not None:
        spec = replace(spec, scale=scale)
    if spec.scale not in SCALES:
        raise ScenarioError(
            f"unknown scale {spec.scale!r}; pick from {', '.join(sorted(SCALES))}"
        )
    if seed is not None:
        spec = replace(spec, seeds=(seed,))
    if overrides:
        spec = apply_overrides(spec, overrides)
    return spec


def run_scenario(
    scenario: Any,
    scale: Optional[str] = None,
    seed: Optional[int] = None,
    jobs: int = 1,
    overrides: Sequence[str] = (),
    pool: Any = None,
    cache: Optional[str] = "off",
    cache_dir: Optional[Any] = None,
    executor: Any = None,
    queue_dir: Any = None,
) -> Any:
    """Run a scenario end to end and return its assembled figure data.

    ``scenario`` is a registered name or a :class:`ScenarioSpec`;
    ``scale``/``seed`` override the spec's sizing; ``overrides`` are
    ``--set``-style ``key=value`` strings; ``jobs`` fans the sweep cells
    out to worker processes (1 = serial, 0 = one per core — data is
    byte-identical at any level); ``pool`` shares one
    :class:`~repro.harness.runner.CellPool` across scenarios.

    ``cache`` attaches the persistent result store (see
    docs/ARCHITECTURE.md § Result store): ``"auto"`` loads persisted
    cells and persists fresh ones, ``"refresh"`` recomputes everything
    and repopulates, ``"off"`` (the library default — programmatic
    callers stay pure) touches no store.  ``cache_dir`` overrides the
    store directory (default ``.repro_results/`` or
    ``$REPRO_RESULTS_DIR``).  ``executor`` picks the cell-execution
    backend (``"serial"``/``"pool"``/``"queue"`` or an
    :class:`~repro.exec.Executor` instance — docs/ARCHITECTURE.md
    § Executors) and ``queue_dir`` the queue backend's spool directory.
    A ``pool`` carries its own store and backend, so all of these are
    ignored when one is passed.
    """
    spec = prepare_scenario(scenario, scale=scale, seed=seed, overrides=overrides)
    cells = expand(spec)
    if pool is not None:
        results = run_cells(cells, jobs, pool=pool)
    else:
        try:
            store = open_store(cache, cache_dir)
        except ValueError as error:
            raise ScenarioError(str(error)) from None
        results = run_cells(
            cells, jobs, store=store, executor=executor, queue_dir=queue_dir
        )
    return assemble_scenario(spec, cells, results)


# ----------------------------------------------------------------------
# Registered scenarios — the paper's figures
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
        x_name="servers",
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
        x_name="servers",
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
        cell=f"{_SCN}:_elastic_cell",
        axes=(("setup", ("elastic", "8", "16", "32")), ("rep", (0,))),
        output="fig7",
        assemble=f"{_SCN}:_assemble_fig7",
        render=f"{_SCN}:_render_fig7",
    )


@scenario(paper=True)
def _table1() -> ScenarioSpec:
    """SLA violation percentage and average servers per setup."""
    return ScenarioSpec(
        name="table1",
        title="Table 1 — SLA performance and cost",
        description="SLA violations and average fleet size per setup.",
        cell=f"{_SCN}:_elastic_cell",
        axes=(("setup", ("8", "16", "22", "32", "elastic")), ("rep", (0,))),
        output="table1",
        assemble=f"{_SCN}:_assemble_table1",
        render=f"{_SCN}:_render_table1",
    )


@scenario(paper=True)
def _fig8() -> ScenarioSpec:
    """Throughput time series while migrating 1/8/12 of 20 Rooms."""
    return ScenarioSpec(
        name="fig8",
        title="Fig 8 — throughput while migrating Room contexts",
        description="Throughput time series while migrating 1/8/12 of 20 Rooms.",
        cell=f"{_SCN}:_fig8_cell",
        axes=(("n_migrations", (1, 8, 12)),),
        output="fig8",
        assemble=f"{_SCN}:_assemble_fig8",
        render=f"{_SCN}:_render_fig8",
    )


@scenario(paper=True)
def _fig9() -> ScenarioSpec:
    """Max contexts/s the eManager migrates, per instance type and size."""
    return ScenarioSpec(
        name="fig9",
        title="Fig 9 — eManager max migration throughput (contexts/s)",
        description="eManager migration throughput per instance type and payload.",
        cell=f"{_SCN}:_fig9_cell",
        axes=(
            ("itype_name", ("m1.large", "m1.medium", "m1.small")),
            ("size_bytes", (1024, 1_000_000)),
        ),
        output="fig9",
        assemble=f"{_SCN}:_assemble_fig9",
        render=f"{_SCN}:_render_fig9",
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
        render=f"{_SCN}:_render_fig10",
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
        assemble=f"{_SCN}:_assemble_fig11",
        render=f"{_SCN}:_render_fig11",
    )


@scenario(paper=True)
def _ablation() -> ScenarioSpec:
    """TPC-C throughput with and without chain (early) release."""
    return ScenarioSpec(
        name="ablation",
        title="Ablation — chain release (TPC-C, AEON_SO, 4 servers)",
        description="TPC-C throughput with and without chain (early) release.",
        cell=f"{_SCN}:_ablation_cell",
        axes=(("early_release", (True, False)),),
        output="ablation",
        assemble=f"{_SCN}:_assemble_ablation",
        render=f"{_SCN}:_render_ablation",
    )


# ----------------------------------------------------------------------
# Registered scenarios — beyond the paper (the old API made these painful)
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
        assemble=f"{_SCN}:_assemble_churn_sweep",
        render=f"{_SCN}:_render_churn_sweep",
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
        faults=FaultSpec(
            kind="split_brain",
            honest_recovery=True,
            crash_drops_state=True,
        ),
        axes=(("fencing", (True, False)),),
        output="split_brain",
        assemble=f"{_SCN}:_assemble_split_brain",
        render=f"{_SCN}:_render_split_brain",
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
        faults=FaultSpec(
            kind="partition_recovery",
            fencing=True,
            honest_recovery=True,
            crash_drops_state=True,
        ),
        output="runs",
        render=f"{_SCN}:_render_partition_recovery",
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
        cell=f"{_SCN}:_massive_game_cell",
        axes=(("rep", (0,)),),
        output="massive",
        assemble=f"{_SCN}:_assemble_massive",
        render=f"{_SCN}:_render_massive",
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
        cell=f"{_SCN}:_massive_tpcc_cell",
        axes=(("rep", (0,)),),
        output="massive",
        assemble=f"{_SCN}:_assemble_massive",
        render=f"{_SCN}:_render_massive",
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
            kind="ramp",
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
