"""Tests for the kernel's timer queue (sim/kernel.py).

The queue is one binary heap of ``(fire_at, seq, callback, args)``
tuples that only ``sim/kernel.py`` touches, so every test here goes
through :meth:`Simulator.schedule` / :meth:`~Simulator.run`.  It must
order entries *exactly* by ``(fire_at, seq)`` — any deviation breaks the
determinism trace checksums — which a hypothesis differential test
checks against a sorted-list model of the kernel without fast paths; a
seeded mutant of the heap shows that the test can fail.
"""

from bisect import insort
from heapq import heapify

import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.sim import kernel
from repro.sim.kernel import Simulator


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
    resume (two steps), nothing inlined, nothing fast-forwarded."""

    def __init__(self):
        self.now = 0.0
        self.seq = 0
        self.queue = []
        self.fired = []

    @property
    def pending(self):
        return len(self.queue)

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


class _Real:
    """The same verbs on a :class:`Simulator`."""

    def __init__(self):
        self.sim = sim = Simulator()
        self.fired = []
        self.schedule, self.run = sim.schedule, sim.run

    now = property(lambda self: self.sim.now)
    pending = property(lambda self: self.sim.pending_events)

    def spawn(self, ident, naps):
        def sleeper():
            for i, (as_signal, delay) in enumerate(naps):
                yield self.sim.timeout(delay) if as_signal else delay
                self.fired.append((self.sim.now, ident, i))

        self.sim.process(sleeper())


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
    elif op == "run_until":
        world.run(until=world.now + args[0])
    else:
        world.run()


# Zero, equal (a grid, so fire times collide) and arbitrary delays.
_delays = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 0.5, 1.0, 2.0]),
    st.floats(min_value=0.01, max_value=30.0, allow_nan=False),
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
)


_PROGRAMS = st.lists(_ops, max_size=40)
_SETTINGS = settings(
    max_examples=300, deadline=None, derandomize=True, database=None,
    report_multiple_bugs=False,
)


def _check_equivalence(program):
    # Random schedules (callbacks that arm more timers, sleeping
    # processes) and resumed runs: the heap-backed kernel and the model
    # must fire the same things at the same times.
    model, real = _Model(), _Real()
    for ident, (op, *args) in enumerate(program + [("run",)]):
        _apply(model, ident, op, args)
        _apply(real, ident, op, args)
        assert real.fired == model.fired
        assert real.now == model.now
        assert real.pending == model.pending
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
