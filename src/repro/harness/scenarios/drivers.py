"""The generic cell body, :func:`run_point`, and the four drivers behind it.

A generic scenario's cells all run :func:`run_point`, which picks one
driver from the spec's ``faults``, ``elastic`` and ``app`` declarations:
closed-loop throughput, a fault timeline, an elastic ramp, or mixed
co-tenancy.  Each driver builds testbed + app + clients (+ fault or
elasticity machinery), runs the simulation and returns the point's
plain-data result.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from ...apps.game import GameConfig, build_game
from ...apps.tpcc import TpccConfig, TpccWorkload, build_tpcc
from ...core.runtime import FAILED_TAG
from ...elasticity import CloudStorage, EManager, SLAPolicy
from ...faults import (
    FailureDetector, FaultInjector, FaultSchedule, NetworkPartition, ServerCrash,
    random_churn,
)
from ...sim.cluster import INSTANCE_TYPES, M3_LARGE, InstanceType
from ...sim.metrics import mean, percentile
from ...workloads.generators import ClosedLoopClients, DynamicClients, RampProfile
from ...workloads.sla import availability_slo, sla_report
from ..runner import make_testbed, measure, run_closed_loop
from .spec import (
    SCALES, ElasticSpec, FaultSpec, GameSpec, Scale, ScenarioError, ScenarioSpec,
    TpccSpec, WorkloadSpec,
)
from .sweep import _set_key


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
    spec's fault/elastic/app declarations pick the driver; every driver
    deploys on servers of the spec's ``instance`` type.
    """
    system = str(point.pop("system", spec.systems[0] if spec.systems else "aeon"))
    n_servers = int(point.pop("n_servers", 0) or spec.servers or 1)
    seed = int(point.pop("seed", spec.seeds[0]))
    for key, value in point.items():
        spec = _set_key(spec, key, value)
    if spec.faults.kind != "none":
        driver = _fault_run
    elif spec.elastic is not None:
        driver = _elastic_run
    elif spec.app in ("game", "tpcc"):
        driver = _throughput_point
    elif spec.app == "mixed":
        driver = _mixed_run
    else:
        raise ScenarioError(f"unknown app {spec.app!r}; pick game, tpcc or mixed")
    itype = INSTANCE_TYPES.get(spec.instance or M3_LARGE.name)
    if itype is None:
        raise ScenarioError(
            f"unknown instance {spec.instance!r}; pick from "
            f"{', '.join(sorted(INSTANCE_TYPES))}"
        )
    return driver(spec, SCALES[spec.scale], system, n_servers, seed, itype)


def _throughput_point(
    spec: ScenarioSpec, sizing: Scale, system: str, n_servers: int, seed: int,
    itype: InstanceType,
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
    with make_testbed(system, n_servers, instance_type=itype, seed=seed) as testbed:
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
    spec: ScenarioSpec, sizing: Scale, system: str, n_servers: int, seed: int,
    itype: InstanceType,
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
    with make_testbed(system, n_servers, instance_type=itype, seed=seed) as testbed:
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
    spec: ScenarioSpec, sizing: Scale, system: str, n_servers: int, seed: int,
    itype: InstanceType,
) -> Dict[str, object]:
    """Game under profile-following load on an elastic or a static fleet (§6.2).

    With ``spec.elastic`` the fleet starts at ``n_servers`` and the
    eManager grows/shrinks it against that SLA policy while clients
    follow the workload's ramp profile (e.g. the diurnal wave); with
    ``None`` — fig7/table1's fixed setups, see :func:`elastic_cell` —
    the fleet stays at ``n_servers`` and is scored against the default
    SLA.
    """
    e = spec.elastic
    wl = spec.workload
    duration = spec.duration_ms or sizing.elastic_duration_ms
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
    spec: ScenarioSpec, sizing: Scale, system: str, n_servers: int, seed: int,
    itype: InstanceType,
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
    with make_testbed(system, n_servers, instance_type=itype, seed=seed) as testbed:
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
