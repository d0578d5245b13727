"""Object lifetimes: per-event objects die by reference count, and a
materialised context stays lean.

``Simulator.run`` pauses the cyclic collector, so anything created per
step or per event that sits in a reference cycle accumulates until the
run returns — memory grows with events *executed*, not with live state.
These tests pin the two invariants (docs/ARCHITECTURE.md § Object
lifetimes and memory):

* no per-event cycle — an explicit ``gc.collect()`` after a stretch of
  simulated time finds (next to) nothing, for completed and for failed
  events, on every runtime;
* a materialised bulk leaf (instance + lock) costs a few hundred bytes;
* no per-run cycle — a driver closes its testbed, and a closed testbed
  (finished or stopped mid-flight) is freed by reference count, quietly.
"""

import dataclasses
import gc
import subprocess
import sys
import traceback
import tracemalloc
from pathlib import Path

import pytest

from repro.apps.game import GameConfig, Room, build_game
from repro.apps.massive import MassiveConfig, build_massive
from repro.apps.tpcc import TpccConfig, TpccWorkload, build_tpcc
from repro.core.errors import AeonError
from repro.core.events import AccessMode, CallSpec, Event
from repro.core.locking import ContextLock
from repro.exec import Cell, execute_cell
from repro.faults import FaultInjector, FaultSchedule, ServerCrash
from repro.harness import runner, scenarios
from repro.harness.runner import make_testbed
from repro.harness.scenarios import SCALES, expand, prepare_scenario
from repro.sim import Resource, SimulationError, Simulator
from repro.workloads.generators import ClosedLoopClients

REPO = Path(__file__).resolve().parent.parent

#: Cyclic-garbage objects tolerated per event (≈8.5 before this guard).
GARBAGE_PER_EVENT = 0.05
#: The measured window of simulated time, ms.
T1, T2 = 200.0, 600.0


def _game_bed(system, n_servers=4, n_clients=32, **client_kwargs):
    testbed = make_testbed(system, n_servers, seed=1)
    app = build_game(
        testbed.runtime, GameConfig(rooms=n_servers), system, servers=testbed.servers
    )
    clients = ClosedLoopClients(
        testbed.runtime,
        app.sample_op,
        n_clients=n_clients,
        think_ms=1.0,
        rng=testbed.rng,
        stop_at_ms=T2,
        **client_kwargs,
    )
    clients.start()
    return testbed, clients


def _tpcc_bed():
    testbed = make_testbed("aeon", 2, seed=3)
    deployment = build_tpcc(
        testbed.runtime,
        TpccConfig(districts=2, customers_per_district=6),
        multi_ownership=True,
        servers=testbed.servers,
        colocate=True,
    )
    clients = ClosedLoopClients(
        testbed.runtime,
        TpccWorkload(deployment, "aeon").sample_op,
        n_clients=8,
        think_ms=5.0,
        rng=testbed.rng,
        stop_at_ms=T2,
    )
    clients.start()
    return testbed, clients


def _garbage_in_window(testbed):
    """``(cyclic garbage, completed, failed)`` over the window (T1, T2].

    The testbed stays referenced by the caller, so whatever the second
    collection finds was created — and orphaned — by the events in
    between.  The clients stop at ``T2``; the run is then drained so no
    half-run event generator is left for a later collection to close.
    """
    runtime = testbed.runtime
    testbed.sim.run(until=T1)
    gc.collect()
    completed, failed = runtime.events_completed, runtime.events_failed
    testbed.sim.run(until=T2)
    garbage = gc.collect()
    completed = runtime.events_completed - completed
    failed = runtime.events_failed - failed
    testbed.sim.run()
    assert runtime.events_inflight == 0
    return garbage, completed, failed


# ----------------------------------------------------------------------
# (a) no per-event cycle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bed", [
    pytest.param(lambda: _game_bed("aeon"), id="game-aeon"),
    pytest.param(lambda: _game_bed("eventwave"), id="game-eventwave"),
    pytest.param(lambda: _game_bed("orleans"), id="game-orleans"),
    pytest.param(_tpcc_bed, id="tpcc-aeon"),
])
def test_completed_events_leave_no_cyclic_garbage(bed):
    testbed, clients = bed()
    garbage, completed, _failed = _garbage_in_window(testbed)
    assert completed > 100 and not clients.errors
    assert garbage <= GARBAGE_PER_EVENT * completed


@pytest.mark.parametrize("system", ["aeon", "eventwave", "orleans"])
def test_failed_events_leave_no_cyclic_garbage(system):
    """A crashed server with nobody recovering it: every event routed
    there fails with a DeliveryError caught by the process trampoline."""
    testbed, clients = _game_bed(system, max_retries=1)
    crash = ServerCrash(100.0, testbed.servers[1].name)
    FaultInjector(
        testbed.sim, testbed.network, testbed.cluster, FaultSchedule([crash])
    ).start()
    garbage, _completed, failed = _garbage_in_window(testbed)
    assert failed > 100 and clients.errors
    assert garbage <= GARBAGE_PER_EVENT * failed
    # The stored traceback lost the trampoline's frame and every frame's
    # locals, not its file/line record.
    report = "".join(traceback.format_exception(clients.errors[-1]))
    assert "check_hop" in report and "raise DeliveryError" in report
    assert "_step" not in report


def test_failed_process_keeps_a_traceback_naming_the_raising_line():
    sim = Simulator()

    def inner():
        yield 1.0
        raise KeyError("boom")  # the raising line

    def outer():
        yield from inner()

    def waiter(target):
        yield target

    failing = sim.process(outer())
    relay = sim.process(waiter(failing))
    sim.run()
    assert failing.exc is relay.exc and isinstance(relay.exc, KeyError)
    report = "".join(traceback.format_exception(relay.exc))
    assert 'raise KeyError("boom")  # the raising line' in report
    assert "in inner" in report and "in outer" in report and "in waiter" in report
    assert "_step" not in report
    tb = relay.exc.__traceback__
    while tb is not None:
        assert not tb.tb_frame.f_locals
        tb = tb.tb_next


@pytest.mark.parametrize("tolerant_first", [True, False])
def test_clearing_a_failure_spares_generators_that_caught_it(tolerant_first):
    """Two waiters on one failing process: the one that catches and goes
    on is in the exception's traceback when the other fails with it —
    and clearing a suspended generator's frame would close it."""
    sim = Simulator()

    def failing():
        yield 1.0
        raise KeyError("boom")

    def tolerant(target):
        try:
            yield target
        except KeyError:
            pass
        yield 5.0
        return "survived"

    def strict(target):
        yield target

    target = sim.process(failing())
    waiters = [tolerant, strict] if tolerant_first else [strict, tolerant]
    procs = {body.__name__: sim.process(body(target)) for body in waiters}
    sim.run()
    assert procs["strict"].exc is target.exc
    assert procs["tolerant"].value == "survived" and sim.now == 6.0


def test_clearing_a_failure_spares_the_generator_that_passed_it_on():
    sim = Simulator()
    done = sim.signal()

    def work():
        yield 1.0
        raise KeyError("boom")

    def relay():
        try:
            yield from work()
        except KeyError as exc:
            done.fail(exc)
        yield 5.0
        return "survived"

    def strict():
        yield done

    relaying, failed = sim.process(relay()), sim.process(strict())
    sim.run()
    assert isinstance(failed.exc, KeyError)
    assert relaying.value == "survived" and sim.now == 6.0


def test_contended_resource_grants_leave_no_cyclic_garbage():
    """16 workers × 2 000 holds on 2 units: nearly every ``use()`` takes
    the contended path, whose grant used to carry itself as its value."""
    sim = Simulator()
    resource = Resource(sim, capacity=2)

    def worker():
        for _ in range(2000):
            yield from resource.use(0.5)

    def requester():
        for _ in range(200):
            grant = resource.request()
            yield grant
            assert grant.value is None
            yield 0.5
            resource.release(grant)

    for _ in range(16):
        sim.process(worker())
    sim.process(requester())
    gc.collect()
    sim.run()
    assert resource.in_use == 0 and resource.queue_length == 0
    assert gc.collect() < 50


def test_finished_process_drops_its_generator_and_callbacks():
    sim = Simulator()

    def body():
        yield 1.0
        return 7

    proc = sim.process(body())
    sim.run()
    assert proc.value == 7
    assert all(
        getattr(proc, slot) is None
        for slot in type(proc).__slots__
        if slot == "_generator" or slot.endswith("_cb")
    )


# ----------------------------------------------------------------------
# (b) lean materialised context
# ----------------------------------------------------------------------
def test_bytes_per_materialised_bulk_leaf():
    """Instance + lock of a bulk leaf after one acquire/release: 1494 B
    when the lock carried a deque, two dicts, a name and a private ready
    signal; measured 457 B now.  Extends PR 12's per-registered-leaf
    guard (``test_ownership_bytes_per_bulk_leaf``)."""
    count = 10_000
    testbed = make_testbed("aeon", 4, seed=0)
    runtime = testbed.runtime
    build_massive(runtime, MassiveConfig(contexts=count), testbed.servers)
    event = Event(1, CallSpec("p-0", "noop"), AccessMode.EX, "client", 0.0, "")
    cids = [f"p-{i}" for i in range(count)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for cid in cids:
            runtime.instance_of(cid)
            lock = runtime.lock_of(cid)
            _grant, owned = lock.request(event)
            assert owned
            lock.release(event)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(runtime.instances) >= count
    assert retained / count <= 650


# ----------------------------------------------------------------------
# (c) ContextLock: slots, late queue
# ----------------------------------------------------------------------
def _event(eid, mode=AccessMode.EX):
    return Event(eid, CallSpec("c", "m"), mode, "client", 0.0, "")


def test_context_lock_is_slotted_and_idle_until_contention():
    sim = Simulator()
    lock = ContextLock(sim, "c")
    assert not hasattr(lock, "__dict__")
    assert lock.queue_length == 0 and lock.holders() == [] and not lock.is_held()
    lock.release(_event(9))  # releasing a stranger on a never-queued lock
    first = _event(1)
    grant, owned = lock.request(first)
    assert owned and grant.triggered and grant is sim.ready
    assert lock.request(first) == (sim.ready, False)  # re-entrant
    assert lock.queue_length == 0 and lock.holders() == [1]
    lock.release(first)
    assert lock.queue_length == 0 and lock.total_acquisitions == 1
    # Every lock of a simulator hands out the same ready signal.
    assert ContextLock(sim, "d").request(first)[0] is grant


def test_context_lock_cancels_a_reservation_on_a_late_queue():
    sim = Simulator()
    lock = ContextLock(sim, "c")
    holder, cancelled, waiter = _event(1), _event(2), _event(3)
    lock.request(holder)
    pending, owned = lock.request(cancelled)  # first contention: queue appears
    assert owned and not pending.triggered and lock.queue_length == 1
    assert lock.request(cancelled) == (pending, False)
    grant, _ = lock.request(waiter)
    assert lock.queue_length == 2
    lock.release(cancelled)  # never admitted: cancels the reservation
    assert lock.queue_length == 1 and not pending.triggered
    lock.release(cancelled)  # double release tolerated
    lock.release(holder)
    assert grant.triggered and lock.holders() == [3] and lock.queue_length == 0
    lock.release(waiter)
    assert not lock.is_held() and lock.total_acquisitions == 2
    # The drained queue keeps working on the uncontended path.
    assert lock.request(cancelled) == (sim.ready, True)


# ----------------------------------------------------------------------
# (d) no per-run cycle: a finished simulation frees itself
# ----------------------------------------------------------------------
#: Objects a collection may still find after a cell (0 measured; a cell
#: left 2 000–17 000 before drivers closed their testbeds).
GARBAGE_PER_CELL = 50


def _quick_cell(name, key, overrides=()):
    spec = prepare_scenario(name, scale="quick", seed=0, overrides=list(overrides))
    (cell,) = [cell for cell in expand(spec) if cell.key == key]
    return cell


def _garbage_after(cell):
    """What a collection finds after ``execute_cell(cell)`` ran with the
    collector off: anything of the run that did not die by refcount."""
    gc.collect()
    gc.disable()
    try:
        execute_cell(cell)
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("cell", [
    pytest.param(lambda: _quick_cell("fig5a", ("aeon", 2)), id="fig5a"),
    pytest.param(lambda: _quick_cell("fig6a", ("aeon", 2)), id="fig6a"),
    pytest.param(
        lambda: _quick_cell("fig10", ("aeon",), ["duration_ms=4000"]), id="fig10"
    ),
    pytest.param(lambda: _quick_cell("fig7", ("elastic", 0)), id="fig7"),
    pytest.param(
        lambda: _quick_cell("split_brain", ("aeon", True), ["duration_ms=4000"]),
        id="split_brain",
    ),
])
def test_executed_cell_leaves_no_simulation_behind(cell):
    assert _garbage_after(cell()) <= GARBAGE_PER_CELL


def test_executed_massive_cell_leaves_no_simulation_behind(monkeypatch):
    tiny = dataclasses.replace(
        SCALES["quick"],
        massive_contexts=5_000,
        massive_servers=8,
        massive_clients=32,
        massive_duration_ms=200.0,
        massive_warmup_ms=50.0,
    )
    monkeypatch.setitem(SCALES, "tiny", tiny)
    cell = Cell(
        key=(0,),
        fn="repro.harness.scenarios:_massive_game_cell",
        kwargs={"rep": 0, "scale": "tiny", "seed": 0},
    )
    assert _garbage_after(cell) <= GARBAGE_PER_CELL


def test_memory_does_not_grow_with_cells_executed():
    cell = _quick_cell("fig6a", ("aeon", 2), ["duration_ms=400", "warmup_ms=100"])
    execute_cell(cell)  # imports, method caches, interned strings
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        execute_cell(cell)
        after_one = tracemalloc.get_traced_memory()[0]
        for _ in range(4):
            execute_cell(cell)
        after_five = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert after_five <= 1.05 * after_one


def _testbed_of_cell_failing_at_measure(monkeypatch, cell):
    """Run ``cell`` with ``measure`` raising; returns the testbed it made."""
    made = []
    make = runner.make_testbed

    def recording_make_testbed(*args, **kwargs):
        made.append(make(*args, **kwargs))
        return made[-1]

    def failing_measure(*_args, **_kwargs):
        raise RuntimeError("measurement failed")

    for module in (runner, scenarios):
        monkeypatch.setattr(module, "make_testbed", recording_make_testbed)
        monkeypatch.setattr(module, "measure", failing_measure)
    with pytest.raises(RuntimeError, match="measurement failed"):
        execute_cell(cell)
    (testbed,) = made
    return testbed


def test_cell_that_raises_still_closes_its_testbed(monkeypatch):
    testbed = _testbed_of_cell_failing_at_measure(
        monkeypatch, _quick_cell("ablation", (True,))
    )
    with pytest.raises(SimulationError, match="closed"):
        testbed.sim.run()


@pytest.mark.parametrize("figure", ["fig5a", "fig6a"])
def test_throughput_cell_that_raises_still_closes_its_testbed(figure, monkeypatch):
    testbed = _testbed_of_cell_failing_at_measure(
        monkeypatch,
        _quick_cell(figure, ("aeon", 2), ["duration_ms=400", "warmup_ms=100"]),
    )
    with pytest.raises(SimulationError, match="closed"):
        testbed.sim.run()


def test_use_after_close_names_the_closed_object():
    testbed, _clients = _game_bed("aeon", n_servers=2, n_clients=4)
    testbed.sim.run(until=T1)
    testbed.sim.schedule(1.0, print)
    client = testbed.runtime.register_client("late")
    spec = CallSpec("room-0", "nr_players")
    with testbed as entered:
        assert entered is testbed
    testbed.close()  # idempotent
    sim, runtime = testbed.sim, testbed.runtime
    with pytest.raises(SimulationError, match="simulator is closed"):
        sim.run()
    with pytest.raises(SimulationError, match="simulator is closed"):
        sim.schedule(1.0, print)
    body = (delay for delay in (1.0,))
    with pytest.raises(SimulationError, match="simulator is closed"):
        sim.process(body)
    with pytest.raises(AeonError, match="aeon runtime is closed"):
        runtime.submit(client, spec)
    with pytest.raises(AeonError, match="aeon runtime is closed"):
        runtime.create_context(Room, args=(9,))
    assert sim.pending_events == 0 and runtime.context_count() == 0
    assert runtime.events_completed > 0  # the metrics stay readable


@pytest.mark.parametrize("system", ["aeon", "eventwave", "orleans"])
def test_closing_mid_flight_is_quiet_and_complete(system, monkeypatch):
    """Stopped by ``until`` with events inside their bodies, clients
    waiting on them and processes queued for a CPU: close() finalises
    every suspended generator without an ``Exception ignored in:`` line
    (a ``finally`` that yields would earn one) and leaves no cycle."""
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    gc.collect()
    gc.disable()
    try:
        testbed, _clients = _game_bed(system, n_servers=2, n_clients=40)
        testbed.sim.run(until=50.3)
        assert testbed.runtime.events_inflight > 10
        sim = testbed.sim
        assert sim.pending_events > 0  # service and think timers, messages in flight
        testbed.close()
        assert sim.pending_events == 0
        del testbed, _clients, sim
        assert gc.collect() <= GARBAGE_PER_CELL
    finally:
        gc.enable()
    assert not unraisable


def test_timer_armed_while_closing_is_dropped(monkeypatch):
    """A dying generator's ``finally`` may still arm a timer (Orleans
    sends its lock releases from one): on a closing simulator that
    neither raises nor keeps the entry — or what it refers to — alive."""
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    gc.collect()
    gc.disable()
    try:
        sim = Simulator()
        cpu = Resource(sim, capacity=1)

        def holder(name):
            try:
                yield from cpu.use(100.0)
            finally:
                sim.timeout(5.0)
                sim._schedule_at(sim.now + 1.0, holder, (name,))

        for name in "abc":
            sim.process(holder(name))
        sim.schedule(30.0, print)
        sim.run(until=10.0)
        assert sim.pending_events == 2  # the service timer and the print
        sim.close()
        assert sim.pending_events == 0
        del sim, cpu
        assert gc.collect() <= GARBAGE_PER_CELL
    finally:
        gc.enable()
    assert not unraisable


def test_cell_in_a_subprocess_is_quiet_and_leaves_nothing():
    script = (
        "import gc\n"
        "from repro.exec import execute_cell\n"
        "from repro.harness.scenarios import expand, prepare_scenario\n"
        "spec = prepare_scenario('fig10', scale='quick', seed=0,"
        " overrides=['duration_ms=4000'])\n"
        "gc.disable()\n"
        "execute_cell(expand(spec)[0])\n"
        "print(gc.collect())\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        cwd=REPO,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": ""},
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert int(result.stdout) <= GARBAGE_PER_CELL


# ----------------------------------------------------------------------
# The CLI module is not imported by its own package
# ----------------------------------------------------------------------
def test_experiments_cli_runs_without_runtime_warning():
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m",
         "repro.harness.experiments", "--list-scenarios"],
        capture_output=True,
        text=True,
        cwd=REPO,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": ""},
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == "" and "massive_game" in result.stdout
