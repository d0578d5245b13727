"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim.kernel import SimulationError, Simulator, Timeout


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_schedule_runs_in_time_order():
    sim = Simulator()
    seen = []
    sim.schedule(5.0, lambda: seen.append(("b", sim.now)))
    sim.schedule(1.0, lambda: seen.append(("a", sim.now)))
    sim.run()
    assert seen == [("a", 1.0), ("b", 5.0)]


def test_equal_times_run_in_scheduling_order():
    sim = Simulator()
    seen = []
    for tag in "abc":
        sim.schedule(1.0, seen.append, tag)
    sim.run()
    assert seen == ["a", "b", "c"]


def test_schedule_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1.0, lambda: None)


def test_run_until_stops_clock():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    final = sim.run(until=4.0)
    assert final == 4.0
    assert sim.pending_events == 1


def test_run_until_past_all_events_advances_clock():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    assert sim.run(until=100.0) == 100.0


def test_signal_succeeds_once():
    sim = Simulator()
    signal = sim.signal("s")
    signal.succeed(42)
    with pytest.raises(SimulationError):
        signal.succeed(43)


def test_signal_callback_after_completion_still_fires():
    sim = Simulator()
    signal = sim.signal("s")
    signal.succeed(7)
    seen = []
    signal.add_callback(lambda s: seen.append(s.value))
    sim.run()
    assert seen == [7]


def test_signal_fail_requires_exception():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.signal("s").fail("not an exception")


def test_timeout_fires_at_deadline():
    sim = Simulator()
    t = sim.timeout(3.5, value="done")
    sim.run()
    assert t.triggered and t.value == "done"
    assert sim.now == 3.5


def test_timeout_negative_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        Timeout(sim, -0.1)


def test_process_returns_value():
    sim = Simulator()

    def body():
        yield sim.timeout(1.0)
        return "result"

    assert sim.run_process(body()) == "result"


def test_process_waits_on_signals_in_sequence():
    sim = Simulator()
    trace = []

    def body():
        trace.append(sim.now)
        yield sim.timeout(2.0)
        trace.append(sim.now)
        yield sim.timeout(3.0)
        trace.append(sim.now)

    sim.run_process(body())
    assert trace == [0.0, 2.0, 5.0]


def test_process_receives_signal_value():
    sim = Simulator()
    signal = sim.signal("v")
    sim.schedule(4.0, signal.succeed, "payload")

    def body():
        got = yield signal
        return got

    assert sim.run_process(body()) == "payload"


def test_process_exception_propagates_to_waiters():
    sim = Simulator()

    def failing():
        yield sim.timeout(1.0)
        raise RuntimeError("boom")

    def waiter():
        try:
            yield sim.process(failing())
        except RuntimeError as exc:
            return str(exc)
        return "no error"

    assert sim.run_process(waiter()) == "boom"


def test_process_failed_signal_raises_at_yield():
    sim = Simulator()
    signal = sim.signal("f")
    sim.schedule(1.0, signal.fail, ValueError("bad"))

    def body():
        with pytest.raises(ValueError):
            yield signal
        return "handled"

    assert sim.run_process(body()) == "handled"


def test_process_yield_none_is_cooperative_hop():
    sim = Simulator()
    order = []

    def first():
        order.append("first-a")
        yield None
        order.append("first-b")

    def second():
        order.append("second")
        return
        yield  # pragma: no cover - makes it a generator

    sim.process(first())
    sim.process(second())
    sim.run()
    assert order == ["first-a", "second", "first-b"]


def test_process_yielding_garbage_fails():
    sim = Simulator()

    def body():
        yield 42

    proc = sim.process(body())
    sim.run()
    assert proc.exc is not None
    assert isinstance(proc.exc, SimulationError)


def test_run_process_unfinished_raises():
    sim = Simulator()
    never = sim.signal("never")

    def body():
        yield never

    with pytest.raises(SimulationError):
        sim.run_process(body())


def test_determinism_same_seeded_program_identical_trace():
    def build():
        sim = Simulator()
        trace = []

        def worker(name, delay):
            for _ in range(3):
                yield sim.timeout(delay)
                trace.append((name, sim.now))

        sim.process(worker("x", 1.5))
        sim.process(worker("y", 2.0))
        sim.run()
        return trace

    assert build() == build()
