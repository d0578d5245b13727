"""Unit tests for Store and Resource."""

import pytest

from repro.sim.kernel import SimulationError, Simulator
from repro.sim.queues import Resource, Store


# ----------------------------------------------------------------------
# Store
# ----------------------------------------------------------------------
def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)
    store.put("x")

    def body():
        value = yield store.get()
        return value

    assert sim.run_process(body()) == "x"


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)

    def producer():
        yield sim.timeout(5.0)
        store.put("late")

    def consumer():
        value = yield store.get()
        return value, sim.now

    sim.process(producer())
    assert sim.run_process(consumer()) == ("late", 5.0)


def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    for item in (1, 2, 3):
        store.put(item)
    got = []

    def consumer():
        for _ in range(3):
            got.append((yield store.get()))

    sim.run_process(consumer())
    assert got == [1, 2, 3]


def test_store_getters_served_in_request_order():
    sim = Simulator()
    store = Store(sim)
    results = []

    def consumer(name):
        value = yield store.get()
        results.append((name, value))

    sim.process(consumer("first"))
    sim.process(consumer("second"))
    sim.schedule(1.0, store.put, "a")
    sim.schedule(2.0, store.put, "b")
    sim.run()
    assert results == [("first", "a"), ("second", "b")]


def test_store_len_and_waiting():
    sim = Simulator()
    store = Store(sim)
    assert len(store) == 0
    store.put(1)
    assert len(store) == 1
    sim.run()
    assert store.waiting_getters == 0


# ----------------------------------------------------------------------
# Resource
# ----------------------------------------------------------------------
def test_resource_capacity_enforced():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    active = []
    peak = []

    def worker(i):
        yield from res.use(10.0)
        peak.append(res.in_use)

    def tracker():
        yield sim.timeout(5.0)
        active.append(res.in_use)

    for i in range(5):
        sim.process(worker(i))
    sim.process(tracker())
    sim.run()
    assert active == [2]
    assert sim.now == 30.0  # 5 jobs x 10ms over 2 slots


def test_resource_fifo_admission():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def worker(name):
        grant = res.request()
        yield grant
        order.append(name)
        yield sim.timeout(1.0)
        res.release(grant)

    for name in ("a", "b", "c"):
        sim.process(worker(name))
    sim.run()
    assert order == ["a", "b", "c"]


def test_resource_invalid_capacity():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_resource_release_unacquired_raises():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    grant = sim.signal("fake")
    with pytest.raises(SimulationError):
        res.release(grant)


def test_resource_busy_accounting():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def worker():
        yield from res.use(8.0)

    sim.run_process(worker())
    assert res.busy_core_ms() == pytest.approx(8.0)


def test_resource_queue_length():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def worker():
        yield from res.use(5.0)

    sim.process(worker())
    sim.process(worker())
    sim.run(until=1.0)
    assert res.queue_length == 1
