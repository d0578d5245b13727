"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim.kernel import CpuCharge, SimulationError, Simulator, Timeout
from repro.sim.queues import Resource


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


@pytest.mark.parametrize("pending", ["timer", "immediate", "none"])
def test_run_until_before_now_rejected(pending):
    # The clock never moves back, whatever is queued.
    sim = Simulator()
    sim.run(until=10.0)
    if pending == "timer":
        sim.schedule(5.0, lambda: None)
    elif pending == "immediate":
        sim.call_soon(lambda: None)
    with pytest.raises(ValueError):
        sim.run(until=2.0)
    assert sim.now == 10.0
    assert sim.run(until=10.0) == 10.0


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


@pytest.mark.parametrize("site", ["schedule", "timeout", "yield", "cpu_charge"])
def test_nan_delay_rejected_and_clock_stays_finite(site):
    # NaN compares False against 0, so a bare ``delay < 0`` check lets it
    # through and a timer due at NaN poisons the clock.
    nan = float("nan")
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    unit = Resource(sim, capacity=1)

    def body():
        yield nan if site == "yield" else CpuCharge(unit, nan)

    if site == "schedule":
        with pytest.raises(ValueError):
            sim.schedule(nan, lambda: None)
    elif site == "timeout":
        with pytest.raises(ValueError):
            sim.timeout(nan)
    else:
        proc = sim.process(body())
    sim.run()
    assert sim.now == 5.0
    if site in ("yield", "cpu_charge"):
        assert isinstance(proc.exc, SimulationError)


def test_timeout_on_a_closed_simulator_raises_and_arms_nothing():
    sim = Simulator()
    sim.timeout(1.0)
    sim.run()
    sim.close()
    for delay in (0.0, 2.0):
        with pytest.raises(SimulationError, match="simulator is closed"):
            sim.timeout(delay)
    assert sim.pending_events == 0 and sim._timers == []


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


@pytest.mark.parametrize("until", [float("nan"), float("inf"), float("-inf")])
def test_run_rejects_a_horizon_that_is_not_finite(until):
    # The clock would stop at the horizon: NaN fires every timer past it
    # and leaves now = nan, inf leaves now = inf.  Nothing runs.
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, "timer")
    sim.call_soon(fired.append, "soon")
    timers, immediate = list(sim._timers), list(sim._immediate)
    with pytest.raises(ValueError):
        sim.run(until=until)
    assert sim.now == 0.0 and fired == []
    assert sim._timers == timers and list(sim._immediate) == immediate
    assert sim.run() == 5.0 and fired == ["soon", "timer"]


def _target(sim, completion, order):
    """A pending signal and a function completing it at t = 1.0."""
    if completion in ("succeed", "fail"):
        signal = sim.signal("target")
        if completion == "succeed":
            return signal, lambda: sim.schedule(1.0, signal.succeed, "v")
        return signal, lambda: sim.schedule(1.0, signal.fail, ValueError("bad"))
    if completion == "process":
        def body():
            yield 1.0
            return "v"

        return sim.process(body()), lambda: None
    timeout = sim.timeout(1.0, "v")
    if completion == "timeout_idle":
        return timeout, lambda: None
    # A second timer due at the same instant, armed after the timeout:
    # the timeout's waiters queue behind it, as on a heap-only kernel.
    return timeout, lambda: sim.schedule(1.0, order.append, "other")


@pytest.mark.parametrize("register", ["yield", "add_callback", "mixed"])
@pytest.mark.parametrize(
    "completion", ["succeed", "fail", "timeout_idle", "timeout_busy", "process"]
)
@pytest.mark.parametrize("waiters", [1, 2, 3])
def test_waiters_run_in_registration_order(waiters, completion, register):
    # A lone waiter is held bare; a second one makes a list, in
    # registration order, which is the order the waiters run in.
    sim = Simulator()
    order = []
    target, complete = _target(sim, completion, order)

    def waiter(i):
        try:
            yield target
        except ValueError:
            pass
        order.append(i)

    for i in range(waiters):
        if register == "yield" or (register == "mixed" and i % 2 == 0):
            sim.process(waiter(i))
            sim.run(until=0.0)  # runs the process up to its yield
        else:
            target.add_callback(lambda signal, i=i: order.append(i))
        if i == 0:
            assert callable(target.callbacks)
            assert not isinstance(target.callbacks, list)
        else:
            assert isinstance(target.callbacks, list)
            assert len(target.callbacks) == i + 1
    assert not target.triggered and order == []
    complete()
    sim.run()
    first = ["other"] if completion == "timeout_busy" else []
    assert order == first + list(range(waiters))
    assert target.triggered and target.callbacks is None
    assert sim.now == 1.0


@pytest.mark.parametrize("args", [(), ("a",), ("a", "b"), (("a", "b"),)])
@pytest.mark.parametrize("via", ["schedule_now", "schedule_later", "call_soon"])
def test_schedule_and_call_soon_pass_exactly_their_args(args, via):
    # One queued argument each, however many the caller passed: a lone
    # tuple argument arrives as one tuple, not unpacked.
    sim = Simulator()
    seen = []

    def callback(*got):
        seen.append(got)

    if via == "call_soon":
        sim.call_soon(callback, *args)
    else:
        sim.schedule(0.0 if via == "schedule_now" else 2.0, callback, *args)
    assert sim.pending_events == 1
    sim.run()
    assert seen == [args]
