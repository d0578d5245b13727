"""The custom cell bodies: figures whose wiring is not the generic driver's.

Elasticity setups, migration pumps, the massive tier and the ablation
each run one body, named by a spec's ``cell`` field as
``repro.harness.scenarios:<name>`` (the package binds every body here
under that public name).  A body takes its axis values plus
``scale``/``seed`` as kwargs and returns plain data.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ...apps.game import GameConfig, Room
from ...apps.massive import MassiveConfig, build_massive, run_checksum
from ...apps.tpcc import TpccConfig
from ...core.costs import DEFAULT_COSTS
from ...elasticity import CloudStorage, MigrationCoordinator
from ...sim.cluster import INSTANCE_TYPES, M1_SMALL, M3_LARGE, InstanceType, Server
from ...sim.metrics import LatencyRecorder
from ..runner import make_testbed, run_closed_loop
from .drivers import _elastic_run, _game_app, _start_clients, _tpcc_sampler
from .spec import SCALES, ElasticSpec, GameSpec, ScenarioSpec, WorkloadSpec


def elastic_cell(setup: str, rep: int, scale: str, seed: int) -> Dict[str, object]:
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
        # 32 rooms so the fleet can usefully grow beyond 16 servers.
        game=GameSpec(rooms=32, players_per_room=4, shared_items_per_room=2),
        # The default ramp: a normal peak of 1→16 clients on 8 machines.
        workload=WorkloadSpec(think_ms=12.0),
        elastic=ElasticSpec() if elastic else None,
    )
    run = _elastic_run(
        spec, SCALES[scale], "aeon", 8 if elastic else int(setup), seed + rep, M1_SMALL
    )
    kept = ("latency_series", "server_series", "client_series", "sla")
    return {"setup": setup, **{key: run[key] for key in kept}}


def _migration_host(testbed, itype: InstanceType) -> MigrationCoordinator:
    """A migration coordinator on its own ``~emanager`` host of ``itype``."""
    storage = CloudStorage(testbed.sim)
    host = Server(testbed.sim, "~emanager", itype)
    testbed.network.register(host.name, host.mailbox, itype)
    return MigrationCoordinator(testbed.runtime, storage, host)


def fig8_cell(
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


def fig9_cell(itype_name: str, size_bytes: int, scale: str, seed: int) -> float:
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


def massive_game_cell(rep: int, scale: str, seed: int) -> Dict[str, object]:
    """One repetition of the massive game-flavor run (``seed + rep``)."""
    return _massive_run("game", scale, seed + rep)


def massive_tpcc_cell(rep: int, scale: str, seed: int) -> Dict[str, object]:
    """One repetition of the massive TPC-C-flavor run (``seed + rep``)."""
    return _massive_run("tpcc", scale, seed + rep)


def ablation_cell(early_release: bool, scale: str, seed: int) -> float:
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
