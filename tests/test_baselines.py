"""Integration tests for the EventWave and Orleans runtime models."""

import pytest

from repro.baselines import (
    EventWaveRuntime,
    OrleansDeadlockError,
    OrleansRuntime,
    SingleOwnershipError,
)
from repro.core import AeonRuntime, ContextClass, Ref
from repro.core.errors import AeonError
from repro.core.events import AccessMode

from conftest import Cell, Testbed, Worker, build_group


# ----------------------------------------------------------------------
# EventWave: tree discipline
# ----------------------------------------------------------------------
def test_eventwave_executes_events(eventwave_bed):
    _group, workers, _ = build_group(eventwave_bed, shared_cells=0)
    event = eventwave_bed.run_event(workers[0].bump_all(3))
    assert event.error is None
    runtime = eventwave_bed.runtime
    for cell in runtime.instance_of(workers[0]).cells:
        assert runtime.instance_of(cell).value == 3


def test_eventwave_rejects_second_owner(eventwave_bed):
    runtime = eventwave_bed.runtime
    root = runtime.create_context(Worker, server=eventwave_bed.servers[0], name="r")
    other = runtime.create_context(
        Worker, owners=[root.__class__ and root], server=eventwave_bed.servers[0], name="o"
    )
    cell = runtime.create_context(Cell, owners=[root], server=eventwave_bed.servers[0])
    with pytest.raises(SingleOwnershipError):
        runtime.instance_of(other).cells.add(cell)


def test_eventwave_rejects_multi_owner_creation(eventwave_bed):
    runtime = eventwave_bed.runtime
    a = runtime.create_context(Worker, server=eventwave_bed.servers[0], name="a")
    b = runtime.create_context(Worker, server=eventwave_bed.servers[0], name="b")
    with pytest.raises(SingleOwnershipError):
        runtime.create_context(Cell, owners=[a, b], server=eventwave_bed.servers[0])


def test_eventwave_requires_single_root(eventwave_bed):
    runtime = eventwave_bed.runtime
    runtime.create_context(Worker, server=eventwave_bed.servers[0], name="root1")
    runtime.create_context(Worker, server=eventwave_bed.servers[0], name="root2")
    with pytest.raises(AeonError):
        runtime.root_context()


def test_eventwave_all_events_ordered_at_root(eventwave_bed):
    _group, workers, _ = build_group(eventwave_bed, shared_cells=0)
    events = [
        eventwave_bed.submit(workers[i % 2].bump_all()) for i in range(6)
    ]
    eventwave_bed.run()
    for done in events:
        assert done.value.dom == eventwave_bed.runtime.root_context()
    eventwave_bed.runtime.check_history()


def test_eventwave_root_sequencer_serializes_admission(eventwave_bed):
    """Throughput is bounded by the serial root cost (the paper's knee)."""
    _group, workers, _ = build_group(eventwave_bed, shared_cells=0)
    n = 40
    done = [eventwave_bed.submit(workers[i % 2].crunch(0.01)) for i in range(n)]
    eventwave_bed.run()
    assert all(d.triggered for d in done)
    root_cost_wall = eventwave_bed.runtime.costs.eventwave_root_cpu_ms / 2.6
    assert eventwave_bed.sim.now >= n * root_cost_wall


def test_eventwave_readonly_treated_exclusive(eventwave_bed):
    _group, workers, _ = build_group(eventwave_bed, shared_cells=0)
    event = eventwave_bed.run_event(workers[0].read_cells())
    assert event.mode is AccessMode.EX  # no read-only sharing in EventWave


def test_eventwave_async_degrades_to_sync(eventwave_bed):
    _group, workers, _ = build_group(eventwave_bed, shared_cells=0, private_cells=3)
    event = eventwave_bed.run_event(workers[0].bump_all_async(2))
    assert event.error is None
    runtime = eventwave_bed.runtime
    for cell in runtime.instance_of(workers[0]).cells:
        assert runtime.instance_of(cell).value == 2


def test_eventwave_strict_serializability_under_load(eventwave_bed):
    """Conflicts in a tree arise through ancestor-target events."""
    group, workers, _ = build_group(eventwave_bed, n_workers=2, shared_cells=0)
    done = [eventwave_bed.submit(w.bump_all()) for w in workers for _ in range(6)]
    done += [eventwave_bed.submit(group.fan_out()) for _ in range(4)]
    eventwave_bed.run()
    assert all(d.triggered and d.value.error is None for d in done)
    runtime = eventwave_bed.runtime
    cells = runtime.instance_of(workers[0]).cells.refs()
    assert runtime.instance_of(cells[0]).value == 10  # 6 direct + 4 fanned
    eventwave_bed.runtime.check_history()


# ----------------------------------------------------------------------
# Orleans: grains
# ----------------------------------------------------------------------
def test_orleans_executes_events(orleans_bed):
    _group, workers, _ = build_group(orleans_bed, shared_cells=0)
    event = orleans_bed.run_event(workers[0].bump_all(2))
    assert event.error is None


def test_orleans_no_readonly_sharing(orleans_bed):
    _group, workers, _ = build_group(orleans_bed, shared_cells=0)
    event = orleans_bed.run_event(workers[0].read_cells())
    assert event.mode is AccessMode.EX


def test_orleans_grain_serializes_requests(orleans_bed):
    """A single grain processes one request at a time (makespan check)."""
    runtime = orleans_bed.runtime
    worker = runtime.create_context(Worker, server=orleans_bed.servers[0], name="grain")
    done = [orleans_bed.submit(worker.crunch(20.0)) for _ in range(4)]
    orleans_bed.run()
    assert all(d.triggered for d in done)
    # 4 x 20 unit-ms x 1.4 overhead / 2.6 speed, strictly serial.
    assert orleans_bed.sim.now >= 4 * 20.0 * 1.4 / 2.6


def test_orleans_deadlock_on_call_cycle():
    bed = Testbed(OrleansRuntime, n_servers=1)

    class PingA(ContextClass):
        def __init__(self):
            self.other = None

        def ping(self):
            yield self.other.pong()

    class PingB(ContextClass):
        def __init__(self):
            self.other = None

        def pong(self):
            yield self.other.ping()

    runtime = bed.runtime
    a = runtime.create_context(PingA, server=bed.servers[0], name="pa")
    b = runtime.create_context(PingB, server=bed.servers[0], name="pb")
    runtime.instance_of(a).other = b
    runtime.instance_of(b).other = a
    event = bed.run_event(a.ping())
    assert isinstance(event.error, OrleansDeadlockError)


def test_orleans_self_call_deadlocks(orleans_bed):
    class Selfish(ContextClass):
        def __init__(self):
            pass

        def recurse(self):
            yield self.ref.recurse()

    runtime = orleans_bed.runtime
    selfish = runtime.create_context(Selfish, server=orleans_bed.servers[0], name="s")
    event = orleans_bed.run_event(selfish.recurse())
    assert isinstance(event.error, OrleansDeadlockError)


def test_orleans_no_cross_grain_atomicity(orleans_bed):
    """A nested call's lock is dropped on return: no two-phase locking.

    Two concurrent transfer-like requests interleave at the cells, which
    AEON's protocol would forbid.
    """
    runtime = orleans_bed.runtime

    class Transfer(ContextClass):
        def __init__(self):
            self.a = None
            self.b = None

        def move(self):
            yield self.a.add(-1)
            yield self.b.add(1)

    a = runtime.create_context(Cell, server=orleans_bed.servers[0], name="acct-a",
                               args=(10,))
    b = runtime.create_context(Cell, server=orleans_bed.servers[0], name="acct-b")
    t1 = runtime.create_context(Transfer, server=orleans_bed.servers[0], name="t1")
    t2 = runtime.create_context(Transfer, server=orleans_bed.servers[1], name="t2")
    for t in (t1, t2):
        runtime.instance_of(t).a = a
        runtime.instance_of(t).b = b
    done = [orleans_bed.submit(t1.move()), orleans_bed.submit(t2.move())]
    orleans_bed.run()
    assert all(d.triggered and d.value.error is None for d in done)
    # Effects applied (atomicity of the *sum* holds trivially here, the
    # point is that no deadlock and no global lock existed).
    assert runtime.instance_of(a).value == 8
    assert runtime.instance_of(b).value == 2


def test_orleans_hash_placement_spreads_grains():
    bed = Testbed(OrleansRuntime, n_servers=4)
    runtime = bed.runtime
    for i in range(16):
        runtime.create_context(Cell, name=f"spread-{i}")
    hosts = {runtime.placement[f"spread-{i}"] for i in range(16)}
    assert len(hosts) == 4  # round-robin hash over all servers


def test_orleans_cpu_overhead_applied(orleans_bed):
    assert orleans_bed.runtime.cpu_factor == orleans_bed.runtime.costs.orleans_overhead
    aeon = Testbed(AeonRuntime)
    assert aeon.runtime.cpu_factor == 1.0


def test_orleans_async_fanout_joined(orleans_bed):
    _group, workers, _ = build_group(orleans_bed, shared_cells=0, private_cells=3)
    event = orleans_bed.run_event(workers[0].bump_all_async(5))
    assert event.error is None
    runtime = orleans_bed.runtime
    for cell in runtime.instance_of(workers[0]).cells:
        assert runtime.instance_of(cell).value == 5


def test_orleans_allows_unowned_calls(orleans_bed):
    """Grains are unordered: calling a foreign grain is legal."""

    class Caller(ContextClass):
        def __init__(self):
            pass

        def poke(self, foreign):
            result = yield foreign.add(1)
            return result

    runtime = orleans_bed.runtime
    caller = runtime.create_context(Caller, server=orleans_bed.servers[0], name="c")
    foreign = runtime.create_context(Cell, server=orleans_bed.servers[1], name="f")
    event = orleans_bed.run_event(caller.poke(foreign))
    assert event.error is None
    assert event.result == 1
