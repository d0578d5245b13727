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
* a materialised bulk leaf (instance + lock) costs a few hundred bytes.
"""

import gc
import subprocess
import sys
import traceback
import tracemalloc
from pathlib import Path

import pytest

from repro.apps.game import GameConfig, build_game
from repro.apps.massive import MassiveConfig, build_massive
from repro.apps.tpcc import TpccConfig, TpccWorkload, build_tpcc
from repro.core.events import AccessMode, CallSpec, Event
from repro.core.locking import ContextLock
from repro.faults import FaultInjector, FaultSchedule, ServerCrash
from repro.harness.runner import make_testbed
from repro.sim import Resource, Simulator
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
        testbed.sim, testbed.network, testbed.cluster, FaultSchedule([crash]),
        rng=testbed.rng,
    ).start()
    garbage, _completed, failed = _garbage_in_window(testbed)
    assert failed > 100 and clients.errors
    assert garbage <= GARBAGE_PER_EVENT * failed
    # The stored traceback lost the trampoline's frame and every frame's
    # locals, not its file/line record.
    report = "".join(traceback.format_exception(clients.errors[-1]))
    assert "hop_penalty_ms" in report and "raise DeliveryError" in report
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
    signal; measured ≈470 B now.  Extends PR 12's per-registered-leaf
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
