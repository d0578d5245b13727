"""Shared fixtures and helpers for the test suite."""

import hashlib
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.baselines import EventWaveRuntime, OrleansRuntime
from repro.harness.scenarios import _jsonable, run_scenario
from repro.results import MODE_ENV

#: The pinned figure data by figure name: ``--all --scale quick --seed 0``.
GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "figures_quick_seed0.json").read_text()
)["experiments"]


def dump(data) -> str:
    """Figure data as canonical JSON text, for byte comparisons."""
    return json.dumps(_jsonable(data), sort_keys=True)


def digest(data) -> str:
    """SHA-256 of a run's JSON text, key order included: the byte pin of
    the run dicts no golden file holds (recorded at shrunk sizes)."""
    return hashlib.sha256(json.dumps(_jsonable(data)).encode()).hexdigest()


@pytest.fixture(autouse=True)
def _no_ambient_result_store(monkeypatch):
    """Keep tests hermetic: no test reads or writes a developer's
    ``.repro_results/`` store unless it opts in with an explicit
    ``cache_dir`` (an explicit dir overrides this env default)."""
    monkeypatch.setenv(MODE_ENV, "off")
from repro.core import AeonRuntime, ContextClass, Ref, RefSet, readonly
from repro.core.events import async_, compute, dispatch
from repro.sim import Cluster, M3_LARGE, Network, Simulator


class Testbed:
    """A tiny deployment helper for protocol-level tests."""

    __test__ = False  # not a test class despite the name

    def __init__(self, runtime_cls=AeonRuntime, n_servers=2, record_history=True,
                 costs=None):
        self.sim = Simulator()
        self.cluster = Cluster(self.sim)
        self.network = Network(self.sim)
        self.servers = [self.cluster.add_server(M3_LARGE) for _ in range(n_servers)]
        kwargs = {"record_history": record_history}
        if costs is not None:
            kwargs["costs"] = costs
        self.runtime = runtime_cls(self.sim, self.network, self.cluster, **kwargs)
        self.client = self.runtime.register_client("test-client")

    def submit(self, spec, tag=""):
        return self.client.submit(spec, tag=tag)

    def run(self, horizon=60000.0):
        """Run the simulation ``horizon`` ms past the current time."""
        self.sim.run(until=self.sim.now + horizon)

    def run_event(self, spec, tag="", horizon=60000.0):
        """Submit one event, run to completion, return the Event."""
        done = self.submit(spec, tag=tag)
        self.sim.run(until=self.sim.now + horizon)
        assert done.triggered, "event did not complete (possible deadlock)"
        return done.value


# ----------------------------------------------------------------------
# A small reusable app: counters with private and shared children
# ----------------------------------------------------------------------
class Cell(ContextClass):
    """A counter leaf."""

    def __init__(self, value=0):
        self.value = value

    def add(self, delta):
        self.value += delta
        return self.value

    @readonly
    def peek(self):
        return self.value


class Worker(ContextClass):
    """Owns cells; exercises sync, async, compute and dispatch."""

    cells = RefSet(Cell)

    def __init__(self):
        self.steps = 0

    def bump_all(self, delta=1):
        self.steps += 1
        for cell in self.cells:
            yield cell.add(delta)
        return self.steps

    def bump_all_async(self, delta=1):
        self.steps += 1
        for cell in self.cells:
            yield async_(cell.add(delta))

    def chain(self, other_spec):
        self.steps += 1
        yield dispatch(other_spec)

    def crunch(self, work_ms):
        yield compute(work_ms)
        return self.steps

    @readonly
    def read_cells(self):
        total = 0
        for cell in self.cells:
            total += yield cell.peek()
        return total

    @readonly
    def slow_scan(self, work_ms=20.0):
        yield compute(work_ms)
        total = 0
        for cell in self.cells:
            total += yield cell.peek()
        return total


class Group(ContextClass):
    """Owns workers and (possibly shared) cells."""

    workers = RefSet(Worker)
    cells = RefSet(Cell)

    def __init__(self):
        pass

    @readonly
    def nr_workers(self):
        return len(self.workers)

    def fan_out(self, delta=1):
        for worker in self.workers:
            yield async_(worker.bump_all(delta))


_BUILD_COUNTER = [0]


def build_group(testbed, n_workers=2, shared_cells=1, private_cells=1,
                spread=True):
    """Build Group -> Workers -> Cells with optional sharing.

    Returns (group_ref, [worker_refs], [shared_cell_refs]).
    """
    runtime = testbed.runtime
    servers = testbed.servers
    _BUILD_COUNTER[0] += 1
    prefix = f"g{_BUILD_COUNTER[0]}"

    def host(i):
        return servers[i % len(servers)] if spread else servers[0]

    group = runtime.create_context(Group, server=host(0), name=f"{prefix}-group")
    shared = []
    for s in range(shared_cells):
        cell = runtime.create_context(
            Cell, owners=[group], server=host(0), name=f"{prefix}-shared-{s}"
        )
        runtime.instance_of(group).cells.add(cell)
        shared.append(cell)
    workers = []
    for w in range(n_workers):
        worker = runtime.create_context(
            Worker, owners=[group], server=host(w), name=f"{prefix}-worker-{w}"
        )
        runtime.instance_of(group).workers.add(worker)
        for cell in shared:
            runtime.instance_of(worker).cells.add(cell)
        for p in range(private_cells):
            private = runtime.create_context(
                Cell, owners=[worker], server=host(w), name=f"{prefix}-w{w}-cell-{p}"
            )
            runtime.instance_of(worker).cells.add(private)
        workers.append(worker)
    return group, workers, shared


@pytest.fixture
def aeon_bed():
    return Testbed(AeonRuntime)


@pytest.fixture
def eventwave_bed():
    return Testbed(EventWaveRuntime)


@pytest.fixture
def orleans_bed():
    return Testbed(OrleansRuntime)


@pytest.fixture(scope="session")
def figure_store(tmp_path_factory):
    """A throwaway result store (``.dir``) holding every cell of
    ``fig5a`` (filled serially) and ``fig11`` (filled at ``jobs=4``) at
    quick scale, seed 0, and the figure data of those two cold runs by
    name (``.cold``).  Each figure is simulated once per session; the
    tests that are about a dispatch path, not about the simulation, run
    that path over this store.  Read it in place; copy it before
    changing it.
    """
    store_dir = tmp_path_factory.mktemp("figure_store")
    cold = {
        name: run_scenario(
            name, scale="quick", seed=0, jobs=jobs, cache="auto", cache_dir=store_dir
        )
        for name, jobs in (("fig5a", 1), ("fig11", 4))
    }
    return SimpleNamespace(dir=store_dir, cold=cold)
