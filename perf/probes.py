"""Direct layer probes: small timings taken around public calls.

The traced run of every workload runs all of them, at one fixed size,
so each per-layer number means the same thing whichever workload it is
printed beside.  They are taken from outside: a probe times a call into
a public function and reads public counters, nothing more.  None has a
bound; they say where a layer's time goes and which end-to-end metric a
change to that layer should move (``perf/README.md`` has the table).
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

from repro.apps.game import GameConfig, build_game
from repro.apps.massive import MassiveConfig, build_massive
from repro.apps.tpcc import TpccConfig, build_tpcc
from repro.exec import CellResult, ProcessExecutor, SerialExecutor
from repro.harness.runner import make_testbed
from repro.harness.scenarios import (
    assemble_scenario,
    expand,
    list_scenarios,
    prepare_scenario,
    render_scenario,
)
from repro.results import MISS, ResultStore, cell_key
from repro.sim import LatencyRecorder, Network, Simulator
from repro.workloads.generators import ClosedLoopClients

import workloads
from spans import Spans


@dataclass
class Probe:
    """Inputs of the probes plus the values and notes they fill in."""

    seed: int
    smoke: bool
    tmp_dir: str
    src_dir: str
    spans: Spans
    values: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, Any] = field(default_factory=dict)

    def size(self, full: int, smoke: int) -> int:
        return smoke if self.smoke else full


def timed(fn: Callable[[], Any]) -> Tuple[float, Any]:
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


def median_of(repeats: int, fn: Callable[[], Any]) -> float:
    return statistics.median(timed(fn)[0] for _ in range(repeats))


def tail(samples: List[float]) -> Tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value)``; with ten samples or fewer there is
    no such percentile and the maximum is returned as ``p100``.
    """
    ordered = sorted(samples)
    if len(ordered) <= 10:
        return 100.0, ordered[-1]
    index = len(ordered) - 11
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def rss_bytes() -> int:
    """Current (not peak) resident set size, from ``/proc/self/statm``."""
    with open("/proc/self/statm", encoding="ascii") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


# ----------------------------------------------------------------------
# sim
# ----------------------------------------------------------------------
def probe_kernel(p: Probe) -> None:
    rng = random.Random(p.seed)
    offsets = [rng.randrange(7) for _ in range(100)]
    loops = {
        "timeout_storm": lambda: workloads.timeout_storm(100, p.size(500, 50), offsets),
        "store_pingpong": lambda: workloads.store_pingpong(p.size(50_000, 5_000), p.seed),
        "resource_contention": lambda: workloads.resource_contention(
            16, p.size(2_500, 200), offsets
        ),
    }
    for name, loop in loops.items():
        events, wall, _now = loop()
        p.values[f"sim.{name}.events_per_s"] = events / wall


def probe_network(p: Probe) -> None:
    sim = Simulator()
    network = Network(sim)
    network.register("a")
    network.register("b")
    delivered = []
    n = p.size(20_000, 2_000)

    def pump() -> None:
        for i in range(n):
            network.send("a", "b", i, 256, delivered.append)
        sim.run()

    wall, _ = timed(pump)
    p.values["sim.network.sends_per_s"] = n / wall
    p.notes["sim.network"] = {"sent": n, "delivered": len(delivered)}


def probe_metrics(p: Probe) -> None:
    recorder = LatencyRecorder()
    n = p.size(200_000, 20_000)

    def record() -> None:
        for i in range(n):
            end = i * 0.01
            recorder.record(end - 0.5 - (i % 7) * 0.1, end, "op")

    wall, _ = timed(record)
    p.values["sim.metrics.records_per_s"] = n / wall
    horizon = n * 0.01

    def query() -> None:
        recorder.latencies_between(horizon * 0.25, horizon).sort()

    p.values["sim.metrics.window_query_ms"] = median_of(9, query) * 1000.0


# ----------------------------------------------------------------------
# core + apps
# ----------------------------------------------------------------------
def probe_massive(p: Probe) -> None:
    """One bulk build at the massive_bulk population, then a short burst."""
    contexts = p.size(100_000, 5_000)
    testbed = make_testbed("aeon", p.size(32, 8), seed=p.seed)
    runtime = testbed.runtime
    bulk_s = []
    bulk = runtime.create_contexts_bulk

    def timed_bulk(*args: Any, **kwargs: Any) -> None:
        bulk_s.append(timed(lambda: bulk(*args, **kwargs))[0])

    # Interposed on this one runtime object only: build_massive makes
    # the bulk call, and its share of the build is the core's cost.
    runtime.create_contexts_bulk = timed_bulk
    before = rss_bytes()
    build_s, app = timed(
        lambda: build_massive(runtime, MassiveConfig(contexts=contexts), testbed.servers)
    )
    p.values["apps.massive.build_s"] = build_s
    p.values["core.bulk_create_s"] = sum(bulk_s)
    p.values["core.bytes_per_context"] = max(0, rss_bytes() - before) / contexts
    clients = ClosedLoopClients(
        runtime, app.sample_op, n_clients=p.size(64, 16), think_ms=2.0,
        rng=testbed.rng, stop_at_ms=50.0,
    )
    clients.start()
    testbed.sim.run(until=2050.0)
    registered = runtime.context_count()
    p.values["core.materialized_share"] = len(runtime.instances) / registered
    p.notes["core.materialized"] = {
        "materialized": len(runtime.instances), "registered": registered,
    }


def probe_app_builds(p: Probe) -> None:
    def game() -> None:
        testbed = make_testbed("aeon", 4, seed=p.seed)
        build_game(testbed.runtime, GameConfig(rooms=4), "aeon", servers=testbed.servers)

    def tpcc() -> None:
        testbed = make_testbed("aeon", 4, seed=p.seed)
        build_tpcc(
            testbed.runtime, TpccConfig(districts=4, customers_per_district=10),
            True, servers=testbed.servers,
        )

    p.values["apps.game.build_s"] = median_of(5, game)
    p.values["apps.tpcc.build_s"] = median_of(5, tpcc)


# ----------------------------------------------------------------------
# harness
# ----------------------------------------------------------------------
def probe_harness(p: Probe) -> None:
    env = dict(os.environ, PYTHONPATH=p.src_dir)

    def cold_import() -> None:
        subprocess.run(
            [sys.executable, "-c", "import repro.harness.experiments"],
            env=env, check=True, timeout=60,
        )

    p.values["harness.import_s"] = median_of(p.size(3, 1), cold_import)

    names = list_scenarios()

    def plan() -> None:
        for name in names:
            expand(prepare_scenario(name, scale="quick", seed=p.seed))

    p.values["harness.plan_ms"] = median_of(5, plan) * 1000.0
    p.notes["harness.plan"] = {"scenarios": len(names)}

    # Assembly and rendering of the four curve-shaped paper figures over
    # made-up cell values: the cost is the harness's, not a simulation's.
    rng = random.Random(p.seed)
    figures = []
    for name in ("fig5a", "fig5b", "fig6a", "fig6b"):
        spec = prepare_scenario(name, scale="quick", seed=p.seed)
        cells = expand(spec)
        width = len(spec.metrics)
        results = [
            CellResult(
                cell.key,
                rng.uniform(100.0, 9000.0)
                if width == 1
                else tuple(rng.uniform(1.0, 9000.0) for _ in range(width)),
            )
            for cell in cells
        ]
        figures.append((spec, cells, results))

    def assemble_render() -> None:
        for spec, cells, results in figures:
            render_scenario(spec, assemble_scenario(spec, cells, results))

    p.values["harness.assemble_render_ms"] = median_of(5, assemble_render) * 1000.0


# ----------------------------------------------------------------------
# exec
# ----------------------------------------------------------------------
def probe_executors(p: Probe) -> None:
    """Per-cell cost of each backend in steady state, and its spawn cost.

    A backend is spawned, warmed with one cell (``setup_s``), then
    drains equal batches; each batch's wall ÷ its cells is one sample.
    """
    payload = random.Random(p.seed).randbytes(8192)
    workloads.worker_pythonpath()
    spool = os.path.join(p.tmp_dir, "probe-spool")
    backends = {
        "serial": (SerialExecutor, p.size(40, 6), 10),
        "pool": (lambda: ProcessExecutor(jobs=2), p.size(40, 6), p.size(50, 5)),
        "queue": (lambda: workloads.queue_executor(spool), p.size(24, 6), p.size(10, 2)),
    }
    try:
        for name, (build, batches, batch_cells) in backends.items():
            start = time.perf_counter()
            with build() as executor:
                workloads.drain(executor, workloads.noop_cells("warm", 1, payload, first=-1))
                setup_s = time.perf_counter() - start
                samples = []
                for batch in range(batches):
                    cells = workloads.noop_cells(
                        "batch", batch_cells, payload, first=batch * batch_cells
                    )
                    with p.spans.span(f"exec.{name}.drain"):
                        wall, _ = timed(lambda: workloads.drain(executor, cells))
                    samples.append(wall * 1000.0 / batch_cells)
                stats = executor.stats()
            pct, value = tail(samples)
            p.values[f"exec.{name}.per_cell_ms"] = statistics.median(samples)
            p.values[f"exec.{name}.per_cell_tail_ms"] = value
            p.notes[f"exec.{name}"] = {
                "samples": len(samples), "cells_per_sample": batch_cells,
                "tail_percentile": round(pct, 1),
            }
            if name != "serial":
                p.values[f"exec.{name}.setup_s"] = setup_s
            if name == "pool":
                p.values["exec.pool.respawns"] = stats["respawns"]
            if name == "queue":
                p.values["exec.queue.reclaims"] = stats["reclaims"]
                p.values["exec.queue.speculations"] = stats["speculations"]
    finally:
        shutil.rmtree(spool, ignore_errors=True)


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
def probe_store(p: Probe) -> None:
    payload = random.Random(p.seed).randbytes(8192)
    n = p.size(150, 20)
    present = workloads.noop_cells("present", n, payload)
    absent = workloads.noop_cells("absent", n, payload, first=n)
    root = os.path.join(p.tmp_dir, "probe-store")
    try:
        store = ResultStore(root)
        p.values["results.cell_key_us"] = (
            statistics.median(timed(lambda: cell_key(cell))[0] for cell in present) * 1e6
        )
        value = {"x": 0, "payload": payload}
        with p.spans.span("results.put batch"):
            puts = [timed(lambda: store.put(cell, value))[0] for cell in present]
        with p.spans.span("results.load batch"):
            hits = [timed(lambda: store.load(cell)) for cell in present]
            misses = [timed(lambda: store.load(cell)) for cell in absent]
        p.values["results.put_ms"] = statistics.median(puts) * 1000.0
        p.values["results.load_hit_ms"] = statistics.median(t for t, _ in hits) * 1000.0
        p.values["results.load_miss_ms"] = statistics.median(t for t, _ in misses) * 1000.0
        p.values["results.bytes_per_cell"] = store.stats()["bytes"] / n
        p.values["results.hit_share"] = store.hits / (store.hits + store.misses)
        p.notes["results"] = {
            "puts": n, "loads": 2 * n,
            "hit_values_ok": all(v == value for _, v in hits),
            "miss_values_ok": all(v is MISS for _, v in misses),
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


PROBES = (
    probe_kernel, probe_network, probe_metrics, probe_massive,
    probe_app_builds, probe_harness, probe_executors, probe_store,
)


def run_probes(p: Probe) -> None:
    for probe in PROBES:
        with p.spans.span(f"probe {probe.__name__.removeprefix('probe_')}"):
            probe(p)
