"""Unit tests for ContextLock and the serializability checker."""

import pytest

from repro.core.events import AccessMode, CallSpec, Event
from repro.core.history import HistoryRecorder, SerializabilityViolation
from repro.core.locking import acquire
from repro.harness.runner import make_testbed
from repro.sim.kernel import Simulator


def make_event(eid, mode=AccessMode.EX):
    return Event(eid, CallSpec("ctx", "m"), mode, "client", 0.0)


# ----------------------------------------------------------------------
# ContextLock, reached as the runtime reaches it: through a lock table
# ----------------------------------------------------------------------
def test_first_exclusive_granted_immediately():
    sim, table = Simulator(), {}
    lock, grant, owned = acquire(sim, table, "c", make_event(1))
    assert grant.triggered and owned and grant is sim.ready
    assert lock.holders() == [1] and table == {"c": lock}


def test_second_exclusive_waits_for_release():
    sim, table = Simulator(), {}
    e1, e2 = make_event(1), make_event(2)
    lock, g1, _ = acquire(sim, table, "c", e1)
    g2, _ = lock.request(e2)
    assert g1.triggered and not g2.triggered
    assert lock.queue_length == 1
    lock.release(e1)
    assert g2.triggered
    assert lock.holders() == [2] and table["c"] is lock
    lock.release(e2)
    assert table == {}


def test_readonly_events_share():
    sim, table = Simulator(), {}
    r1 = make_event(1, AccessMode.RO)
    r2 = make_event(2, AccessMode.RO)
    lock, g1, _ = acquire(sim, table, "c", r1)
    same, g2, _ = acquire(sim, table, "c", r2)
    assert same is lock
    assert g1.triggered and g2.triggered
    assert sorted(lock.holders()) == [1, 2]


def test_exclusive_waits_for_all_readers():
    sim, table = Simulator(), {}
    r1 = make_event(1, AccessMode.RO)
    r2 = make_event(2, AccessMode.RO)
    w = make_event(3, AccessMode.EX)
    lock, _grant, _owned = acquire(sim, table, "c", r1)
    lock.request(r2)
    gw, _ = lock.request(w)
    assert not gw.triggered
    lock.release(r1)
    assert not gw.triggered
    lock.release(r2)
    assert gw.triggered


def test_fifo_reader_does_not_overtake_queued_writer():
    """Starvation freedom: a reader arriving after a queued writer waits."""
    sim, table = Simulator(), {}
    r1 = make_event(1, AccessMode.RO)
    w = make_event(2, AccessMode.EX)
    r2 = make_event(3, AccessMode.RO)
    lock, _grant, _owned = acquire(sim, table, "c", r1)
    gw, _ = lock.request(w)
    gr2, _ = lock.request(r2)
    assert not gw.triggered and not gr2.triggered
    lock.release(r1)
    assert gw.triggered and not gr2.triggered
    lock.release(w)
    assert gr2.triggered


def test_consecutive_readers_admitted_together():
    sim, table = Simulator(), {}
    w = make_event(1, AccessMode.EX)
    r1 = make_event(2, AccessMode.RO)
    r2 = make_event(3, AccessMode.RO)
    lock, _grant, _owned = acquire(sim, table, "c", w)
    g1, _ = lock.request(r1)
    g2, _ = lock.request(r2)
    lock.release(w)
    assert g1.triggered and g2.triggered


def test_request_idempotent_for_holder():
    sim, table = Simulator(), {}
    event = make_event(1)
    lock, _grant, _owned = acquire(sim, table, "c", event)
    again, owned = lock.request(event)
    assert again.triggered and not owned
    assert acquire(sim, table, "c", event) == (lock, sim.ready, False)
    assert lock.holders() == [1]


def test_request_shares_pending_grant():
    sim, table = Simulator(), {}
    e1, e2 = make_event(1), make_event(2)
    lock, _grant, _owned = acquire(sim, table, "c", e1)
    first, owned_first = lock.request(e2)
    second, owned_second = lock.request(e2)
    assert first is second
    assert owned_first and not owned_second


def test_release_cancels_pending_reservation():
    sim, table = Simulator(), {}
    e1, e2, e3 = make_event(1), make_event(2), make_event(3)
    lock, _grant, _owned = acquire(sim, table, "c", e1)
    lock.request(e2)
    g3, _ = lock.request(e3)
    lock.release(e2)  # e2 aborts its reservation
    lock.release(e1)
    assert g3.triggered
    assert lock.holders() == [3]


def test_double_release_tolerated():
    sim, table = Simulator(), {}
    event = make_event(1)
    lock, _grant, _owned = acquire(sim, table, "c", event)
    lock.release(event)
    lock.release(event)  # no-op
    assert not lock.is_held() and table == {}
    # A late duplicate on the dropped lock leaves its successor alone.
    successor, _grant, _owned = acquire(sim, table, "c", make_event(2))
    lock.release(event)
    assert table == {"c": successor} and successor.holders() == [2]


def test_acquisition_counter():
    sim, table = Simulator(), {}
    for eid in range(3):
        event = make_event(eid)
        lock, grant, owned = acquire(sim, table, "c", event)
        assert owned and grant.triggered and lock.holders() == [eid]
        lock.release(event)
        assert not lock.is_held() and table == {}


def test_release_is_reverse_order_grouped_by_latency():
    """A close gives its locks back in reverse acquisition order, each
    after its release message's one-way latency from the closing server."""
    with make_testbed("aeon", 2) as testbed:
        sim, runtime, servers = testbed.sim, testbed.runtime, testbed.servers
        cids = ["a", "b", "c", "d"]
        holder = make_event(1)
        admitted = []
        for eid, (cid, host) in enumerate(zip(cids, servers * 2), start=2):
            runtime.placement[cid] = host.name
            lock, _grant, _owned = acquire(sim, runtime.locks, cid, holder)
            holder.held.add(cid)
            grant, _owned = lock.request(make_event(eid))
            grant.add_callback(lambda _signal, cid=cid: admitted.append((cid, sim.now)))
        runtime._release(holder, cids, servers[0])
        assert holder.held == set()
        sim.run()
        same, lan = testbed.network.same_host_ms, testbed.network.lan_ms
        assert admitted == [("c", same), ("a", same), ("d", lan), ("b", lan)]


# ----------------------------------------------------------------------
# HistoryRecorder
# ----------------------------------------------------------------------
def test_empty_history_is_valid():
    recorder = HistoryRecorder()
    recorder.check()
    assert recorder.is_strictly_serializable()


def test_serial_writers_valid():
    recorder = HistoryRecorder()
    recorder.commit(1, "a", 0.0, 1.0, reads={}, writes={"x": 1})
    recorder.commit(2, "b", 2.0, 3.0, reads={}, writes={"x": 2})
    recorder.check()
    assert recorder.serial_order() == [1, 2]


def test_conflict_cycle_detected():
    recorder = HistoryRecorder()
    # 1 wrote x before 2 (x: v1 -> v2), but 2 wrote y before 1.
    recorder.commit(1, "", 0.0, 5.0, reads={}, writes={"x": 1, "y": 2})
    recorder.commit(2, "", 0.0, 5.0, reads={}, writes={"x": 2, "y": 1})
    with pytest.raises(SerializabilityViolation):
        recorder.check()
    assert recorder.serial_order() is None


def test_read_write_ordering_edges():
    recorder = HistoryRecorder()
    recorder.commit(1, "", 0.0, 1.0, reads={}, writes={"x": 1})
    recorder.commit(2, "", 1.5, 2.0, reads={"x": 1}, writes={})
    recorder.commit(3, "", 2.5, 3.0, reads={}, writes={"x": 2})
    edges = recorder.conflict_edges()
    assert (1, 2) in edges  # reader follows its writer
    assert (2, 3) in edges  # reader precedes the next writer
    assert (1, 3) in edges  # write-write order
    recorder.check()


def test_real_time_violation_detected():
    recorder = HistoryRecorder()
    # Event 2 commits long before event 1 starts, yet event 1 precedes
    # it in the version order: a strictness violation.
    recorder.commit(1, "", 100.0, 110.0, reads={}, writes={"x": 1})
    recorder.commit(2, "", 0.0, 1.0, reads={}, writes={"x": 2})
    with pytest.raises(SerializabilityViolation) as excinfo:
        recorder.check()
    assert "real-time" in str(excinfo.value)


def test_disjoint_events_any_order_valid():
    recorder = HistoryRecorder()
    recorder.commit(1, "", 0.0, 10.0, reads={}, writes={"x": 1})
    recorder.commit(2, "", 0.0, 10.0, reads={}, writes={"y": 1})
    recorder.check()
    assert set(recorder.serial_order()) == {1, 2}


def test_rollback_discards_are_lost_updates_not_violations():
    recorder = HistoryRecorder()
    recorder.commit(1, "", 0.0, 1.0, reads={}, writes={"x": 1})
    recorder.commit(5, "", 1.2, 1.5, reads={"x": 1}, writes={})
    recorder.commit(2, "", 2.0, 3.0, reads={}, writes={"x": 2})
    recorder.commit(3, "", 4.0, 5.0, reads={"x": 2}, writes={"x": 3})
    recorder.rollback("x", 1, 5.5)  # versions 2 and 3 are gone...
    recorder.commit(4, "", 6.0, 7.0, reads={"x": 1}, writes={"x": 2})
    # ...and written again: a new incarnation, not a mis-ordering.
    assert recorder.check() == 2
    edges = recorder.conflict_edges()
    assert (1, 4) in edges  # the kept write precedes the rewrite
    assert (5, 4) in edges  # so does a kept version's earlier reader
    assert (3, 4) not in edges and (4, 3) not in edges
    # A rollback whose versions are never rewritten still lost them.
    recorder.rollback("x", 1, 8.0)
    assert recorder.check() == 3


def test_version_written_twice_without_rollback_is_a_hard_violation():
    recorder = HistoryRecorder()
    recorder.commit(1, "", 0.0, 1.0, reads={}, writes={"x": 1})
    recorder.commit(2, "", 2.0, 3.0, reads={}, writes={"x": 1})
    with pytest.raises(SerializabilityViolation) as excinfo:
        recorder.check()
    assert "two live committed events" in str(excinfo.value)


def test_readers_of_same_version_unordered():
    recorder = HistoryRecorder()
    recorder.commit(1, "", 0.0, 1.0, reads={}, writes={"x": 1})
    recorder.commit(2, "", 1.0, 2.0, reads={"x": 1}, writes={})
    recorder.commit(3, "", 1.0, 2.0, reads={"x": 1}, writes={})
    edges = recorder.conflict_edges()
    assert (2, 3) not in edges and (3, 2) not in edges
    recorder.check()
