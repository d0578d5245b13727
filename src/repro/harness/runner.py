"""Experiment runner: build a cluster + runtime + app, drive, measure.

Every figure in docs/EXPERIMENTS.md is produced through
:func:`run_closed_loop` / the drivers in :mod:`repro.harness.scenarios`, so
all experiments share one measurement discipline: fixed warmup cut,
fixed measurement window, deterministic seeds.

This module also wires the **parallel experiment engine**: every figure
decomposes into independent :class:`~repro.exec.Cell`\\ s (one
self-contained simulation each — typically one ``(system,
server_count, seed)`` run), executed serially or across worker
processes by :func:`run_cells`, and reassembled in cell order so the
figure data is byte-identical at any ``--jobs`` level.  See
docs/ARCHITECTURE.md § Parallel experiment engine for why cells
parallelise safely (each builds its own simulator and named RNG
streams; nothing reads wall-clock state).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type

from ..baselines import EventWaveRuntime, OrleansRuntime
from ..core.costs import CostModel, DEFAULT_COSTS
from ..core.protocol import AeonRuntime
from ..core.runtime import RuntimeBase
from ..exec import Cell, CellResult, make_executor, resolve_jobs
from ..results.store import MISS, ResultStore
from ..sim.cluster import Cluster, InstanceType, M3_LARGE, Server
from ..sim.kernel import Simulator
from ..sim.network import Network
from ..sim.rng import RngRegistry
from ..workloads.generators import ClosedLoopClients, OpSampler

__all__ = [
    "SYSTEMS",
    "runtime_class_for",
    "Testbed",
    "make_testbed",
    "RunResult",
    "run_closed_loop",
    "run_cells",
    "CellPool",
]

_log = logging.getLogger("repro.harness.runner")

#: The five measured systems, in the paper's legend order.
SYSTEMS = ("eventwave", "orleans", "orleans_star", "aeon_so", "aeon")

_RUNTIME_FOR: Dict[str, Type[RuntimeBase]] = {
    "aeon": AeonRuntime,
    "aeon_so": AeonRuntime,
    "eventwave": EventWaveRuntime,
    "orleans": OrleansRuntime,
    "orleans_star": OrleansRuntime,
}


def runtime_class_for(system: str) -> Type[RuntimeBase]:
    """The runtime class executing ``system`` (variants share runtimes)."""
    try:
        return _RUNTIME_FOR[system]
    except KeyError:
        raise ValueError(f"unknown system {system!r}; pick from {SYSTEMS}") from None


@dataclass
class Testbed:
    """One simulated deployment: simulator, network, cluster, runtime."""

    sim: Simulator
    network: Network
    cluster: Cluster
    runtime: RuntimeBase
    servers: List[Server]
    rng: RngRegistry

    def close(self) -> None:
        """End the run: the deployment is freed by reference count.

        Severs the references by which the parts of a finished run hold
        each other (docs/ARCHITECTURE.md § Object lifetimes and memory),
        so nothing of it waits for a collector pass once the caller lets
        go.  The simulator goes first: what is still suspended dies
        there, while everything its ``finally`` blocks may touch is
        whole.  Idempotent; a closed testbed refuses to run, schedule,
        create contexts or accept events.  A driver that returns plain
        data holds its testbed in a ``with`` block.
        """
        self.sim.close()
        self.runtime.close()
        self.cluster.close()

    def __enter__(self) -> "Testbed":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def make_testbed(
    system: str,
    n_servers: int,
    instance_type: InstanceType = M3_LARGE,
    costs: CostModel = DEFAULT_COSTS,
    seed: int = 0,
    record_history: bool = False,
) -> Testbed:
    """Build a fresh simulated cluster running ``system``.

    Args: ``system`` one of :data:`SYSTEMS`, ``n_servers`` fleet size,
    ``instance_type``/``costs`` hardware and protocol cost models,
    ``seed`` the RNG registry seed, ``record_history`` enables the
    serializability checker.  Returns a :class:`Testbed` whose parts
    share one simulator.  See docs/ARCHITECTURE.md § layer map.
    """
    sim = Simulator()
    cluster = Cluster(sim)
    network = Network(sim)
    servers = [cluster.add_server(instance_type) for _ in range(n_servers)]
    runtime = runtime_class_for(system)(
        sim, network, cluster, costs=costs, record_history=record_history
    )
    return Testbed(
        sim=sim,
        network=network,
        cluster=cluster,
        runtime=runtime,
        servers=servers,
        rng=RngRegistry(seed),
    )


@dataclass
class RunResult:
    """Metrics of one measured run."""

    system: str
    n_servers: int
    n_clients: int
    throughput_per_s: float
    mean_latency_ms: float
    p50_latency_ms: float
    p99_latency_ms: float
    completed: int
    errors: int
    duration_ms: float
    extras: Dict[str, float] = field(default_factory=dict)


def run_closed_loop(
    testbed: Testbed,
    system: str,
    sample_op: OpSampler,
    n_clients: int,
    *,
    think_ms: float,
    duration_ms: float,
    warmup_ms: float,
    drain_ms: float,
) -> RunResult:
    """Drive a deployed app under closed-loop load and measure steady state.

    Starts ``n_clients`` clients drawing operations from ``sample_op``
    (think time ``think_ms``) that stop submitting at ``duration_ms``,
    runs the simulation ``drain_ms`` past that so in-flight events
    finish, and measures ``[warmup_ms, duration_ms)``.  The caller
    deploys the app and owns the testbed (``with make_testbed(...) as
    testbed``).  Used by the fig5/fig6, ablation and massive cells —
    see docs/EXPERIMENTS.md.
    """
    clients = ClosedLoopClients(
        testbed.runtime,
        sample_op,
        n_clients=n_clients,
        think_ms=think_ms,
        rng=testbed.rng,
        stop_at_ms=duration_ms,
    )
    clients.start()
    testbed.sim.run(until=duration_ms + drain_ms)
    result = measure(system, testbed, n_clients, warmup_ms, duration_ms)
    result.errors = len(clients.errors)
    return result


# ----------------------------------------------------------------------
# Parallel experiment engine (executor wiring; primitives: repro.exec)
# ----------------------------------------------------------------------
def run_cells(
    cells: Sequence[Cell],
    jobs: int = 1,
    pool: Optional["CellPool"] = None,
    store: Optional[ResultStore] = None,
    executor: Any = None,
    queue_dir: Any = None,
) -> List[CellResult]:
    """Execute ``cells`` and return their results *in cell order*.

    ``jobs=1`` runs serially in-process (no worker processes, no
    pickling); ``jobs>1``/``0`` fans the cells out to a local
    worker-process pool.  ``executor`` picks the backend explicitly —
    ``"serial"``, ``"pool"`` (retry-on-worker-death, see
    :class:`~repro.exec.ProcessExecutor`), ``"queue"`` (the spool-dir
    work queue under ``queue_dir`` that external ``python -m
    repro.exec.worker`` processes drain), or any
    :class:`~repro.exec.Executor` instance; default: ``REPRO_EXECUTOR``
    or jobs-based.  Whatever the backend, results are reassembled in
    submission order, so figure data is byte-identical to the serial
    path regardless of completion order.  Passing a :class:`CellPool`
    shares one long-lived backend (and its duplicate-cell cache) across
    many ``run_cells`` calls — the ``--all`` streaming path; a pool
    carries its own store and backend, so the other knobs are only
    honored when ``pool`` is ``None``.

    ``store`` attaches a :class:`~repro.results.ResultStore`: cells with
    a persisted result are not dispatched at all (hit → deserialize),
    and every miss is persisted the moment it completes — a killed run
    resumes where it died, and cached data is byte-identical to fresh
    data at any ``jobs`` level.  See docs/EXPERIMENTS.md for per-figure
    ``--jobs`` guidance and docs/ARCHITECTURE.md § Result store /
    § Executors.
    """
    if pool is not None:
        return pool.gather(pool.submit(cells))
    with CellPool(jobs, store=store, executor=executor, queue_dir=queue_dir) as pool_:
        return pool_.gather(pool_.submit(cells))


class _CachedCell:
    """Pool handle for a result-store hit: the value is already here."""

    __slots__ = ("_result",)

    def __init__(self, result: CellResult) -> None:
        self._result = result

    def done(self) -> bool:
        return True

    def result(self) -> CellResult:
        return self._result


class CellPool:
    """One executor backend shared by every scenario of an ``--all`` run.

    Historically each figure ran its cells through its own
    ``run_cells`` batch, so worker processes idled at every figure
    boundary while the last straggler cell finished.  A ``CellPool``
    instead accepts *all* figures' cells up front (:meth:`submit`
    returns per-cell handles immediately), streams results back as
    cells complete, and :meth:`gather` blocks only for the cells a
    figure actually needs — in cell order, so assembled figure data is
    byte-identical to the per-figure batches.

    Identical cells (same ``fn`` and kwargs — e.g. the four elastic
    setups fig7 and table1 share) are executed **once** and their result
    is re-keyed for every requester; cell bodies are deterministic
    functions of their kwargs, so this is invisible in the data.

    Where cells run is an :class:`~repro.exec.Executor` strategy
    (docs/ARCHITECTURE.md § Executors): ``executor`` is a backend name
    (``"serial"`` / ``"pool"`` / ``"queue"``), an executor instance, or
    ``None`` — resolve via ``REPRO_EXECUTOR``, else ``jobs=1`` →
    serial lazy execution (the exact historical serial order) and
    ``jobs>1``/``0`` → the retrying local process pool.  ``queue_dir``
    and ``executor_options`` configure the queue backend.  Use as a
    context manager or call :meth:`close`.

    ``store`` attaches a :class:`~repro.results.ResultStore`: before a
    novel cell is dispatched the store is consulted (hit → the persisted
    value comes back as a ready handle, no worker touched), and every
    executed cell is persisted *as it completes* — so a killed ``--all``
    resumes where it died.  Dedup runs before the store consult, so the
    pool's hit/miss counters count *distinct* cells: a fully warm
    ``--all`` reports 100% hits even though fig7 and table1 request the
    same elastic setups twice.
    """

    def __init__(
        self,
        jobs: int = 1,
        store: Optional[ResultStore] = None,
        executor: Any = None,
        queue_dir: Any = None,
        executor_options: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self.store = store
        self.executor = make_executor(
            executor,
            jobs=self.jobs,
            store=store,
            queue_dir=queue_dir,
            options=executor_options,
        )
        self._cache: Dict[tuple, Any] = {}

    @staticmethod
    def _dedup_key(cell: Cell) -> tuple:
        return (cell.fn, tuple(sorted((k, repr(v)) for k, v in cell.kwargs.items())))

    def _dispatch(self, cell: Cell) -> Any:
        """Produce a handle for one novel cell: store hit or backend submit."""
        store = self.store
        if store is not None:
            value = store.load(cell)
            if value is not MISS:
                return _CachedCell(CellResult(key=cell.key, value=value))
        return self.executor.submit(cell)

    def submit(self, cells: Sequence[Cell]) -> List[Tuple[Cell, Any]]:
        """Enqueue ``cells``; returns ``(cell, handle)`` pairs for :meth:`gather`."""
        handles = []
        for cell in cells:
            key = self._dedup_key(cell)
            handle = self._cache.get(key)
            if handle is None:
                handle = self._dispatch(cell)
                self._cache[key] = handle
            handles.append((cell, handle))
        return handles

    def gather(self, handles: Sequence[Tuple[Cell, Any]]) -> List[CellResult]:
        """Collect the handles' results, re-keyed per requesting cell,
        in submission (= cell) order."""
        return [
            CellResult(key=cell.key, value=handle.result().value)
            for cell, handle in handles
        ]

    def close(self) -> None:
        """Shut the backend down.

        Joins cells already running but cancels the still-queued ones —
        when one cell of an ``--all`` run fails, the error should not
        wait behind minutes of queued elastic simulations.
        """
        self.executor.shutdown(wait=True)

    def __enter__(self) -> "CellPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def measure(
    system: str,
    testbed: Testbed,
    n_clients: int,
    warmup_ms: float,
    duration_ms: float,
) -> RunResult:
    """Extract steady-state metrics from a finished run.

    Counts completions and latencies in ``[warmup_ms, duration_ms)``
    and returns a :class:`RunResult` (throughput, mean/p50/p99 latency,
    completions).  See docs/ARCHITECTURE.md § layer map.
    """
    runtime = testbed.runtime
    window = duration_ms - warmup_ms
    completed = runtime.latency.count_between(warmup_ms, duration_ms)
    # Bisect-windowed query on the array-backed recorder: no per-sample
    # objects, no full scan.
    latencies = runtime.latency.latencies_between(warmup_ms, duration_ms)
    latencies.sort()

    def pct(p: float) -> float:
        if not latencies:
            return 0.0
        return latencies[min(len(latencies) - 1, int(p / 100.0 * (len(latencies) - 1)))]

    return RunResult(
        system=system,
        n_servers=len(testbed.cluster.servers),
        n_clients=n_clients,
        throughput_per_s=completed / (window / 1000.0) if window > 0 else 0.0,
        mean_latency_ms=sum(latencies) / len(latencies) if latencies else 0.0,
        p50_latency_ms=pct(50.0),
        p99_latency_ms=pct(99.0),
        completed=completed,
        errors=0,
        duration_ms=duration_ms,
    )
