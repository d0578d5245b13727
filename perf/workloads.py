"""The six workloads: what one measured pass runs, and how it is checked.

A workload is built once per process from ``--seed`` (set-up), warmed
with one small run, and then its :meth:`run_pass` is the measured
region, executed several times back to back.  A pass runs its *units* —
one cell, one kernel loop, a fraction of a second each — inside
``env.unit(name)``, which times them one by one.  Every pass returns the
simulated data it produced; the caller digests it, so a pass that
drifts from its predecessors is a failure, not a slower number.

Each workload loads one part of the stack and leaves the others idle —
the ``why`` strings in ``BENCHMARK.json`` and ``perf/README.md`` say
which — so a change to one layer has a workload that exercises it and
others where the prediction is *no change*.  ``BENCHMARK.json`` lists
the four single-process ones; ``elastic_faults`` and ``dispatch_store``
run by name only (``perf/README.md`` says why).

Pass sizes are calibrated for ~1.5–3 s on a 2-core box and then
frozen: the work in a pass depends on the seed only through generated
inputs, never on the clock.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import shutil
import time
from dataclasses import dataclass, field
from typing import (
    Any, Callable, ContextManager, Dict, Generator, List, Optional, Sequence, Tuple,
)

from repro.apps.massive import MassiveConfig, build_massive, run_checksum
from repro.exec import Cell, ProcessExecutor, QueueExecutor, execute_cell
from repro.harness.runner import CellPool, make_testbed, measure
from repro.harness.scenarios import SCALES, assemble_scenario, expand, prepare_scenario
from repro.results import ResultStore
from repro.sim import LatencyRecorder, Resource, Simulator, Store
from repro.workloads.generators import ClosedLoopClients

import perf_cells
from spans import Spans

PERF_DIR = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Env:
    """What a workload is built from: the seed, the sizing, a scratch dir."""

    seed: int
    smoke: bool
    tmp_dir: str
    golden_path: str
    spans: Spans
    #: ``with env.unit(name):`` times one unit of a pass (see child.py).
    unit: Callable[[str], ContextManager[None]]
    #: Suspends the traced run's profiler around a region (a no-op
    #: otherwise); see DispatchStore.run_pass for the one user.
    unprofiled: Callable[[], ContextManager[None]] = contextlib.nullcontext


@dataclass
class PassResult:
    """One pass: work done, cells executed, the data to digest, the checks."""

    ops: int
    cells: int
    data: Any
    checks: List[Tuple[str, bool]] = field(default_factory=list)


# ----------------------------------------------------------------------
# kernel_micro — the three pure-kernel loops of repro.sim.bench
# ----------------------------------------------------------------------
def timeout_storm(n_procs: int, n_iters: int, offsets: Sequence[int]) -> Tuple[int, float, float]:
    """``n_procs`` processes sleeping ``n_iters`` times with staggered delays."""
    sim = Simulator()

    def sleeper(offset: int) -> Generator:
        delay = 0.5 + offset * 0.25
        for _ in range(n_iters):
            yield sim.timeout(delay)

    for i in range(n_procs):
        sim.process(sleeper(offsets[i % len(offsets)]))
    start = time.perf_counter()
    sim.run()
    return n_procs * n_iters, time.perf_counter() - start, sim.now


def store_pingpong(rounds: int, first_token: int) -> Tuple[int, float, float]:
    """Two processes bouncing a token through two stores."""
    sim = Simulator()
    a, b = Store(sim, "a"), Store(sim, "b")

    def pinger() -> Generator:
        for i in range(rounds):
            a.put(first_token + i)
            yield b.get()

    def ponger() -> Generator:
        for _ in range(rounds):
            token = yield a.get()
            b.put(token)

    sim.process(pinger())
    sim.process(ponger())
    start = time.perf_counter()
    sim.run()
    return 2 * rounds, time.perf_counter() - start, sim.now


def resource_contention(n_procs: int, n_iters: int, offsets: Sequence[int]) -> Tuple[int, float, float]:
    """``n_procs`` processes contending for a 2-core resource."""
    sim = Simulator()
    cpu = Resource(sim, capacity=2, name="cpu")

    def worker(offset: int) -> Generator:
        hold = 1.0 + offset * 0.125
        for _ in range(n_iters):
            yield from cpu.use(hold)

    for i in range(n_procs):
        sim.process(worker(offsets[i % len(offsets)]))
    start = time.perf_counter()
    sim.run()
    return n_procs * n_iters, time.perf_counter() - start, sim.now


class KernelMicro:
    ops_unit = "kernel events"

    def __init__(self, env: Env) -> None:
        self.unit = env.unit
        rng = random.Random(env.seed)
        self.offsets = [rng.randrange(7) for _ in range(100)]
        self.first_token = rng.randrange(1 << 20)
        if env.smoke:
            self.storm, self.rounds, self.contention = (100, 100), 10_000, (16, 500)
        else:
            self.storm, self.rounds, self.contention = (100, 2500), 250_000, (16, 12_500)

    def _loops(self, storm, rounds, contention) -> PassResult:
        loops: List[Tuple[str, Callable[[], Tuple[int, float, float]]]] = [
            ("sim.timeout_storm", lambda: timeout_storm(*storm, self.offsets)),
            ("sim.store_pingpong", lambda: store_pingpong(rounds, self.first_token)),
            ("sim.resource_contention", lambda: resource_contention(*contention, self.offsets)),
        ]
        events, data = 0, {}
        for name, loop in loops:
            with self.unit(name):
                n, _wall, sim_now = loop()
            events += n
            data[name] = [n, sim_now]
        expected = storm[0] * storm[1] + 2 * rounds + contention[0] * contention[1]
        return PassResult(events, 0, data, [("event count", events == expected)])

    def warmup(self) -> None:
        self._loops((10, 20), 100, (4, 20))

    def run_pass(self) -> PassResult:
        return self._loops(self.storm, self.rounds, self.contention)


# ----------------------------------------------------------------------
# game_scaleout / tpcc_contention — registered paper sweeps, in process
# ----------------------------------------------------------------------
class ScenarioSweep:
    """A registered curve scenario run cell by cell through ``execute_cell``.

    ``ops`` is the number of simulated client operations completed in
    the measurement window, summed over the cells: throughput × window.
    At seed 0 the series must equal the same points of the repo's golden
    figures (read from ``tests/data``, never copied here).
    """

    ops_unit = "client ops"
    scenario = ""
    overrides: Tuple[str, ...] = ()
    smoke_overrides: Tuple[str, ...] = ()
    window_s = 0.0

    def __init__(self, env: Env) -> None:
        self.env = env
        overrides = self.smoke_overrides if env.smoke else self.overrides
        with env.spans.span("harness.plan"):
            self.spec = prepare_scenario(
                self.scenario, scale="quick", seed=env.seed, overrides=list(overrides)
            )
            self.cells = expand(self.spec)
        self.golden = self._golden_series() if env.seed == 0 else None

    def _golden_series(self) -> Optional[Dict[str, Dict[Any, float]]]:
        try:
            with open(self.env.golden_path, encoding="utf-8") as handle:
                figure = json.load(handle)["experiments"][self.scenario]
        except (OSError, ValueError, KeyError):
            return {}  # seed 0 without a readable golden fails the check below
        return {system: {x: v for x, v in points} for system, points in figure.items()}

    def warmup(self) -> None:
        spec = prepare_scenario(
            self.spec, overrides=["duration_ms=120", "warmup_ms=40"]
        )
        execute_cell(expand(spec)[0])

    def run_pass(self) -> PassResult:
        results = []
        for cell in self.cells:
            with self.env.unit(f"cell {self.scenario} {cell.key}"):
                results.append(execute_cell(cell))
        with self.env.spans.span("harness.assemble"):
            curves = assemble_scenario(self.spec, self.cells, results)
        ops = sum(round(result.value * self.window_s) for result in results)
        checks = [("throughput > 0", all(result.value > 0 for result in results))]
        if self.golden is not None:
            for system, points in curves.items():
                want = self.golden.get(system, {})
                checks.append(
                    (
                        f"golden {self.scenario}/{system}",
                        all(want.get(x) == value for x, value in points),
                    )
                )
        return PassResult(ops, len(self.cells), curves, checks)


class GameScaleout(ScenarioSweep):
    scenario = "fig5a"
    overrides = ("systems=aeon,eventwave", "server_counts=2,4")
    smoke_overrides = ("systems=eventwave", "server_counts=2")
    window_s = (SCALES["quick"].game_duration_ms - SCALES["quick"].game_warmup_ms) / 1000.0


class TpccContention(ScenarioSweep):
    scenario = "fig6a"
    overrides = ("systems=aeon,aeon_so,orleans", "server_counts=2,4")
    smoke_overrides = ("systems=orleans", "server_counts=2")
    window_s = (SCALES["quick"].tpcc_duration_ms - SCALES["quick"].tpcc_warmup_ms) / 1000.0


# ----------------------------------------------------------------------
# massive_bulk — the massive_game cell, from its public parts
# ----------------------------------------------------------------------
def massive_cell(
    seed: int,
    contexts: int,
    servers: int,
    clients: int,
    duration_ms: float,
    warmup_ms: float,
    unit: Callable[[str], ContextManager[None]],
) -> Dict[str, Any]:
    """The ``massive_game`` run with its own sizing.

    The registered scenario takes its population and duration from the
    scale preset alone; building the same run here from ``make_testbed``
    / ``build_massive`` / ``ClosedLoopClients`` keeps the quick tier's
    population (the memory headline) and shortens the simulated window.
    Two units: the bulk build, then the simulated run with its read-out.
    """
    with unit("massive_game build"):
        testbed = make_testbed("aeon", servers, seed=seed)
        testbed.runtime.latency = LatencyRecorder(sample_threshold=65536)
        app = build_massive(
            testbed.runtime, MassiveConfig(contexts=contexts, flavor="game"), testbed.servers
        )
    clients_ = ClosedLoopClients(
        testbed.runtime,
        app.sample_op,
        n_clients=clients,
        think_ms=SCALES["quick"].massive_think_ms,
        rng=testbed.rng,
        stop_at_ms=duration_ms,
    )
    with unit("massive_game run"):
        clients_.start()
        testbed.sim.run(until=duration_ms + 2000.0)
        result = measure("aeon", testbed, clients, warmup_ms, duration_ms)
        checksum = run_checksum(testbed.runtime, app)
    return {
        "contexts": testbed.runtime.context_count(),
        "materialized": len(testbed.runtime.instances),
        "completed": result.completed,
        "throughput_per_s": result.throughput_per_s,
        "mean_latency_ms": result.mean_latency_ms,
        "p99_latency_ms": result.p99_latency_ms,
        "errors": len(clients_.errors),
        "checksum": checksum,
    }


class MassiveBulk:
    ops_unit = "client ops"

    def __init__(self, env: Env) -> None:
        self.seed = env.seed
        self.unit = env.unit
        quick = SCALES["quick"]
        if env.smoke:
            self.sizing = (5_000, 8, 32, 80.0, 20.0)
        else:
            self.sizing = (
                quick.massive_contexts, quick.massive_servers, quick.massive_clients,
                300.0, 100.0,
            )

    def warmup(self) -> None:
        massive_cell(self.seed, 2_000, 4, 8, 40.0, 10.0, contextlib.nullcontext)

    def run_pass(self) -> PassResult:
        run = massive_cell(self.seed, *self.sizing, self.unit)
        checks = [
            ("errors == 0", run["errors"] == 0),
            ("completed > 0", run["completed"] > 0),
            ("materialized < contexts", run["materialized"] < run["contexts"]),
        ]
        return PassResult(run["completed"], 1, run, checks)


# ----------------------------------------------------------------------
# elastic_faults — fig10: crash, detection, checkpoint restore
# ----------------------------------------------------------------------
class ElasticFaults:
    ops_unit = "client events"

    def __init__(self, env: Env) -> None:
        self.unit = env.unit
        # 4000 ms is the shortest run in which the 1500 ms checkpoint
        # still precedes the crash at 35 % and recovery ends in-window.
        overrides = (
            ["systems=aeon", "duration_ms=2400", "checkpoint_ms=400", "clients=12"]
            if env.smoke
            else ["systems=aeon,orleans", "duration_ms=4000"]
        )
        with env.spans.span("harness.plan"):
            self.spec = prepare_scenario(
                "fig10", scale="quick", seed=env.seed, overrides=overrides
            )
            self.cells = expand(self.spec)

    def warmup(self) -> None:
        spec = prepare_scenario(
            self.spec, overrides=["duration_ms=600", "checkpoint_ms=100", "systems=aeon"]
        )
        execute_cell(expand(spec)[0])

    def run_pass(self) -> PassResult:
        window_s = self.spec.faults.window_ms / 1000.0
        ops, runs, checks = 0, [], []
        for cell in self.cells:
            with self.unit(f"cell fig10 {cell.key}"):
                run = execute_cell(cell).value
            runs.append(run)
            completed = round(sum(rate for _t, rate in run["goodput"]) * window_s)
            ops += completed + run["events_failed"]
            for name, ok in (
                ("detections >= 1", len(run["detections"]) >= 1),
                ("recoveries >= 1", len(run["recoveries"]) >= 1),
                ("contexts_recovered > 0", run["contexts_recovered"] > 0),
                ("checkpoints_taken > 0", run["checkpoints_taken"] > 0),
            ):
                checks.append((f"{run['system']}: {name}", ok))
        return PassResult(ops, len(self.cells), runs, checks)


# ----------------------------------------------------------------------
# dispatch_store — no-op cells through every backend and the store
# ----------------------------------------------------------------------
def drain(executor: Any, cells: Sequence[Cell]) -> List[Any]:
    """Submit every cell, then collect the values in submission order."""
    handles = [executor.submit(cell) for cell in cells]
    return [handle.result().value for handle in handles]


def worker_pythonpath() -> None:
    """Put ``perf/`` on ``PYTHONPATH`` so spawned queue workers resolve
    :mod:`perf_cells` (``QueueExecutor`` passes the variable on)."""
    parts = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    if PERF_DIR not in parts:
        os.environ["PYTHONPATH"] = os.pathsep.join([PERF_DIR] + parts)


def queue_executor(root: str) -> QueueExecutor:
    return QueueExecutor(queue_dir=root, spawn_workers=2, poll_interval_s=0.05)


def noop_cells(tag: str, n: int, payload: bytes, first: int = 0) -> List[Cell]:
    """``n`` no-op cells numbered from ``first``.  The number is part of
    a cell's content key, so cells that share a store or spool must not
    share numbers, or the second one is served from the first's result."""
    return [
        Cell((tag, i), perf_cells.NOOP, {"x": i, "payload": payload})
        for i in range(first, first + n)
    ]


class DispatchStore:
    """Counts were calibrated once so the four segments take comparable
    time (store cold, store warm ×3, pool, queue), then frozen."""

    ops_unit = "cells"

    def __init__(self, env: Env) -> None:
        self.unit = env.unit
        self.unprofiled = env.unprofiled
        self.tmp_dir = env.tmp_dir
        self.payload = random.Random(env.seed).randbytes(8192)
        n_store, n_pool, n_queue = (20, 100, 10) if env.smoke else (350, 2500, 150)
        self.store_cells = noop_cells("store", n_store, self.payload)
        self.pool_cells = noop_cells("pool", n_pool, self.payload)
        self.queue_cells = noop_cells("queue", n_queue, self.payload)
        self.passes = 0
        worker_pythonpath()

    def warmup(self) -> None:
        """Spawn each backend once and push one cell through it."""
        cell = noop_cells("warmup", 1, self.payload)
        root = os.path.join(self.tmp_dir, "warmup")
        try:
            with ProcessExecutor(jobs=2) as pool:
                drain(pool, cell)
            with queue_executor(os.path.join(root, "spool")) as queue:
                drain(queue, cell)
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def run_pass(self) -> PassResult:
        self.passes += 1
        root = os.path.join(self.tmp_dir, f"pass{self.passes}")
        segments: Dict[str, List[Any]] = {}
        hits = misses = 0
        try:
            for name in ("store.cold", "store.warm1", "store.warm2", "store.warm3"):
                store = ResultStore(os.path.join(root, "store"))
                with self.unit(f"results.{name}"):
                    with CellPool(1, store=store, executor="serial") as pool:
                        results = pool.gather(pool.submit(self.store_cells))
                segments[name] = [result.value for result in results]
                hits += store.hits
                misses += store.misses
            with self.unit("exec.pool.drain"):
                with ProcessExecutor(jobs=2) as pool_executor:
                    segments["pool"] = drain(pool_executor, self.pool_cells)
            # The coordinator polls until its workers finish, so how often
            # it is called depends on the clock; kept out of the profile,
            # every ``*.calls`` count repeats exactly.  The queue's cost is
            # still in the pass's wall time and in the exec.queue.* probes.
            with self.unit("exec.queue.drain"), self.unprofiled():
                with queue_executor(os.path.join(root, "spool")) as queue:
                    segments["queue"] = drain(queue, self.queue_cells)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        checks = []
        for name, values in segments.items():
            want = [{"x": i, "payload": self.payload} for i in range(len(values))]
            checks.append((f"{name}: payloads returned in order", values == want))
        n_store = len(self.store_cells)
        checks.append(
            ("store: cold misses, warm hits", (misses, hits) == (n_store, 3 * n_store))
        )
        n_cells = sum(len(values) for values in segments.values())
        data = {name: [len(values), values[0]["x"], values[-1]["x"]] for name, values in segments.items()}
        data["payload"] = self.payload
        return PassResult(n_cells, n_cells, data, checks)


WORKLOADS: Dict[str, Callable[[Env], Any]] = {
    "kernel_micro": KernelMicro,
    "game_scaleout": GameScaleout,
    "tpcc_contention": TpccContention,
    "massive_bulk": MassiveBulk,
    "elastic_faults": ElasticFaults,
    "dispatch_store": DispatchStore,
}
