"""Tests for the kernel's timer queue (sim/kernel.py).

The queue is one binary heap of ``(fire_at, seq, callback, arg)``
tuples beside a keyless FIFO of callbacks due now, both touched only by
``sim/kernel.py``, so every test here goes through
:meth:`Simulator.schedule` / :meth:`~Simulator.run`.  Together they must
order entries *exactly* by ``(fire_at, seq)`` — any deviation breaks the
determinism trace checksums — which a hypothesis differential test
checks against a sorted-list model of the kernel without fast paths,
and a second check repeats at a clock so coarse that a 1 ms delay is
absorbed; seeded mutants of the heap, of a CPU hand-over, of the
absorbed-delay routing and of the FIFO drain show that the tests can
fail.
"""

from bisect import insort
from collections import deque
from heapq import heapify, heappop, heappush

import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.sim import kernel
from repro.sim.kernel import CpuCharge, Simulator
from repro.sim.queues import Resource


def _fired_order(sim, delays):
    """Schedule one callback per delay, run, return the ids as fired."""
    fired = []
    for ident, delay in enumerate(delays):
        sim.schedule(delay, fired.append, ident)
    sim.run()
    return fired


def test_push_pop_orders_by_time_then_seq():
    # Equal fire times run in scheduling order; everything else by time.
    sim = Simulator()
    assert _fired_order(sim, [5.0, 1.0, 5.0, 0.5, 0.0, 1.0]) == [4, 3, 1, 5, 0, 2]
    assert sim.now == 5.0


def test_far_future_timer_jump():
    # A lone far-future timer costs nothing until the clock reaches it.
    sim = Simulator()
    fired = []
    sim.schedule(1.5, fired.append, "near")
    sim.schedule(1e6, fired.append, "far")
    assert sim.run(until=2.0) == 2.0
    assert fired == ["near"] and sim.pending_events == 1
    assert sim.run() == 1e6
    assert fired == ["near", "far"] and sim.pending_events == 0


def test_in_window_push_keeps_order():
    # A callback arming a timer that lands *before* entries already
    # queued (a shorter delay than theirs) must fire before them.
    sim = Simulator()
    fired = []

    def first():
        fired.append("a")
        sim.schedule(1.0, fired.append, "d")  # at 2.0: before b and c

    sim.schedule(1.0, first)
    sim.schedule(5.0, fired.append, "b")
    sim.schedule(9.0, fired.append, "c")
    sim.run()
    assert fired == ["a", "d", "b", "c"]


def test_timer_mode_selection(monkeypatch):
    # There is none: one queue, no constructor parameter, no env knob.
    with pytest.raises(TypeError):
        Simulator(timers="heap")
    monkeypatch.setenv("REPRO_SIM_TIMERS", "splay")  # once a ValueError
    assert _fired_order(Simulator(), [2.0, 1.0]) == [1, 0]
    assert not [name for name in vars(kernel) if "Timers" in name]


# ----------------------------------------------------------------------
# Differential test: the kernel against a sorted list without fast paths
# ----------------------------------------------------------------------
class _Model:
    """What the kernel must be indistinguishable from: one sorted list of
    ``(fire_at, seq, action)``, every wait a timer entry *and* a queued
    resume (two steps), nothing inlined, nothing fast-forwarded.  A CPU
    unit is ``[in_use, capacity, waiters]``; a charge is a grant signal
    (a queued resume, at once or at a release), a service timer and a
    queued resume that releases the unit."""

    def __init__(self):
        self.now = 0.0
        self.seq = 0
        self.queue = []
        self.fired = []
        self.units = [[0, 1, deque()], [0, 2, deque()]]

    @property
    def pending(self):
        return len(self.queue)

    @property
    def in_use(self):
        return [unit[0] for unit in self.units]

    def schedule(self, delay, action, *args):
        self.seq += 1
        entry = (self.now + delay, self.seq, action, args)
        insort(self.queue, entry)  # seq is unique: actions are never compared

    def run(self, until=None):
        queue = self.queue
        while queue:
            entry = queue[0]
            if until is not None and entry[0] > until:
                self.now = until
                return
            del queue[0]
            self.now = entry[0]
            entry[2](*entry[3])
        if until is not None:
            self.now = max(self.now, until)

    def spawn(self, ident, naps):
        self.schedule(0.0, self._nap, ident, naps, 0)

    def _nap(self, ident, naps, i):
        if i:
            self.fired.append((self.now, ident, i - 1))
        if i < len(naps):
            resume = (0.0, self._nap, ident, naps, i + 1)
            self.schedule(naps[i][1], self.schedule, *resume)

    def charge(self, ident, index, delays):
        self.schedule(0.0, self._charge, ident, self.units[index], delays, 0)

    def _charge(self, ident, unit, delays, i):
        if i:
            if unit[2]:  # hand the unit over: the waiter's grant resumes
                self.schedule(0.0, *unit[2].popleft())
            else:
                unit[0] -= 1
            self.fired.append((self.now, ident, i - 1))
        if i < len(delays):
            start = (self._serve, ident, unit, delays, i)
            if unit[0] < unit[1]:
                unit[0] += 1
                self.schedule(0.0, *start)
            else:
                unit[2].append(start)

    def _serve(self, ident, unit, delays, i):
        resume = (0.0, self._charge, ident, unit, delays, i + 1)
        self.schedule(delays[i], self.schedule, *resume)


class _Real:
    """The same verbs on a :class:`Simulator`."""

    def __init__(self):
        self.sim = sim = Simulator()
        self.fired = []
        self.schedule, self.run = sim.schedule, sim.run
        self.units = [Resource(sim, 1), Resource(sim, 2)]

    now = property(lambda self: self.sim.now)
    pending = property(lambda self: self.sim.pending_events)
    in_use = property(lambda self: [unit.in_use for unit in self.units])

    def spawn(self, ident, naps):
        def sleeper():
            for i, (as_signal, delay) in enumerate(naps):
                yield self.sim.timeout(delay) if as_signal else delay
                self.fired.append((self.sim.now, ident, i))

        self.sim.process(sleeper())

    def charge(self, ident, index, delays):
        unit = self.units[index]

        def worker():
            for i, delay in enumerate(delays):
                yield CpuCharge(unit, delay)
                self.fired.append((self.sim.now, ident, i))

        self.sim.process(worker())


def _fire(world, ident, children):
    world.fired.append((world.now, ident))
    for k, delay in enumerate(children):
        world.schedule(delay, _fire, world, (ident, k), ())


def _apply(world, ident, op, args):
    """One step of a program on one world."""
    if op == "schedule":
        delays, children = args
        for k, delay in enumerate(delays):
            world.schedule(delay, _fire, world, (ident, k), children)
    elif op == "spawn":
        world.spawn(ident, *args)
    elif op == "charge":
        world.charge(ident, *args)
    elif op == "run_until":
        world.run(until=world.now + args[0])
    else:
        world.run()


# Zero, equal (a grid, so fire times collide) and arbitrary delays.
_grid = st.sampled_from([0.0, 0.25, 0.5, 0.5, 1.0, 2.0])
_delays = st.one_of(
    _grid, st.floats(min_value=0.01, max_value=30.0, allow_nan=False)
)
_ops = st.one_of(
    st.tuples(
        st.just("schedule"),
        st.lists(_delays, min_size=1, max_size=8),
        st.lists(_delays, max_size=3),
    ),
    st.tuples(
        st.just("spawn"), st.lists(st.tuples(st.booleans(), _delays), max_size=4)
    ),
    st.tuples(st.just("run_until"), _delays),
    st.tuples(
        st.just("charge"), st.sampled_from([0, 1]), st.lists(_grid, min_size=1, max_size=4)
    ),
)


_PROGRAMS = st.lists(_ops, max_size=40)
_SETTINGS = settings(
    max_examples=300, deadline=None, derandomize=True, database=None,
    report_multiple_bugs=False,
)


def _check_equivalence(program):
    # Random schedules (callbacks that arm more timers, sleeping
    # processes, processes holding a 1- or 2-unit CPU) and resumed runs:
    # the heap-backed kernel and the model must fire the same things at
    # the same times.
    model, real = _Model(), _Real()
    for ident, (op, *args) in enumerate(program + [("run",)]):
        _apply(model, ident, op, args)
        _apply(real, ident, op, args)
        assert real.fired == model.fired
        assert real.now == model.now
        assert real.pending == model.pending
        assert real.in_use == model.in_use
    assert real.pending == 0


test_randomized_equivalence_with_heap = _SETTINGS(given(_PROGRAMS)(_check_equivalence))


def _assert_mutant_dies():
    # The same property, first failure as found (no shrinking).
    hunt = settings(_SETTINGS, phases=[Phase.generate], max_examples=5000)
    with pytest.raises(AssertionError):
        hunt(given(_PROGRAMS)(_check_equivalence))()


def test_mutant_pop_by_fire_time_only_dies(monkeypatch):
    def pop_ignoring_seq(heap):
        head_time = heap[0][0]
        entry = max(e for e in heap if e[0] == head_time)  # latest seq first
        heap.remove(entry)
        heapify(heap)
        return entry

    monkeypatch.setattr(kernel, "heappop", pop_ignoring_seq)
    _assert_mutant_dies()


def test_mutant_handover_timer_at_release_dies(monkeypatch):
    # Fusing a hand-over's grant into the release: the service timer is
    # armed at release time, with an earlier seq than a queued grant
    # would have given it.
    def release_and_arm(resource):
        sim = resource.sim
        if not resource._waiters:
            resource.in_use -= 1
            return
        process = resource._waiters.popleft().__self__
        sim._sequence += 1
        fire_at = sim.now + process._charge_delay
        heappush(sim._timers, (fire_at, sim._sequence, process._charge_timer_cb, None))

    monkeypatch.setattr(Resource, "release_unit", release_and_arm)
    _assert_mutant_dies()


# ----------------------------------------------------------------------
# A clock too coarse for the delay: at 2**60 ms one ulp is 256 ms
# ----------------------------------------------------------------------
_COARSE = 2.0**60
_ULP = 256.0


def _mix(world, ident):
    # Every kind of wait the clock absorbs (now + 1.0 == now), between
    # zero-delay callbacks: all of them must run in arming order.
    world.fired.append((world.now, ident))
    world.schedule(0.0, _fire, world, (ident, "soon"), (1.0, 0.0))
    world.schedule(1.0, _fire, world, (ident, "absorbed"), (0.0, 1.0))
    world.spawn(ident, [(False, 1.0), (True, 1.0), (False, 0.0), (True, 1.0)])
    world.charge(ident, ident % 2, [1.0, 0.0, 1.0])
    world.schedule(0.0, _fire, world, (ident, "late"), ())


def _check_absorbed_delays():
    model, real = _Model(), _Real()
    for world in (model, real):
        world.run(until=_COARSE)
        assert world.now + 1.0 == world.now
        # Three timers due at the same later instant: the first one's
        # absorbed waits queue behind the other two, already due.
        for ident in range(3):
            world.schedule(_ULP, _mix, world, ident)
        world.schedule(0.0, _fire, world, ("now", 0), (1.0, 0.0))
        world.schedule(1.0, _fire, world, ("now", 1), ())
        world.spawn("now", [(False, 1.0), (True, 1.0)])
        world.run()
    assert real.fired == model.fired
    assert real.now == model.now == _COARSE + _ULP
    assert real.pending == model.pending == 0
    assert real.in_use == model.in_use == [0, 0]
    due = [entry for entry in real.fired if entry[0] == _COARSE + _ULP]
    assert due[:3] == [(_COARSE + _ULP, ident) for ident in range(3)]


def test_absorbed_delays_run_in_arming_order():
    _check_absorbed_delays()


def test_absorbed_release_queues_in_arming_order():
    # The per-event release path (``_schedule_at``) absorbs like schedule.
    sim = Simulator()
    fired = []
    sim.run(until=_COARSE)
    sim.call_soon(fired.append, "a")
    sim._schedule_at(sim.now + 1.0, fired.append, "b")
    sim.call_soon(fired.append, "c")
    assert sim._timers == []
    sim.run()
    assert fired == ["a", "b", "c"]


def test_mutant_absorbed_delay_on_heap_dies(monkeypatch):
    # Arming an absorbed delay as a timer at now: it overtakes the
    # zero-delay callbacks armed before it.
    def schedule_on_heap(self, delay, callback, *args):
        if len(args) != 1:
            callback, args = kernel._apply, ((callback, args),)
        if delay == 0.0:
            self._immediate.append((callback, args[0]))
        else:
            self._sequence += 1
            heappush(self._timers, (self.now + delay, self._sequence, callback, args[0]))

    monkeypatch.setattr(Simulator, "schedule", schedule_on_heap)
    with pytest.raises(AssertionError):
        _check_absorbed_delays()


def test_mutant_drain_without_guard_dies(monkeypatch):
    # Draining the FIFO while a timer is due now: the timer, armed
    # before the clock got here, runs after callbacks armed since.
    def run_draining_first(self, until=None):
        timers, immediate = self._timers, self._immediate
        self._until = until
        try:
            while True:
                while immediate:
                    callback, arg = immediate.popleft()
                    callback(arg)
                if not timers or (until is not None and timers[0][0] > until):
                    break
                entry = heappop(timers)
                self.now = entry[0]
                entry[2](entry[3])
        finally:
            self._until = None
        if until is not None:
            self.now = until
        return self.now

    monkeypatch.setattr(Simulator, "run", run_draining_first)
    with pytest.raises(AssertionError):
        _check_absorbed_delays()
    _assert_mutant_dies()
