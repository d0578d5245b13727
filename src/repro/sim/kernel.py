"""Discrete-event simulation kernel.

This module is the substrate on which the whole reproduction runs.  The
paper evaluated AEON on EC2 with a C++ runtime; a Python thread-based
reproduction would measure GIL contention rather than protocol behaviour,
so instead every runtime (AEON, EventWave, Orleans) executes on this
deterministic simulator.  The kernel is deliberately small and SimPy-like:

* :class:`Simulator` owns the virtual clock and the two event queues: a
  FIFO deque for zero-delay callbacks and one binary heap (``heapq`` on a
  plain list) for timers, merged by ``(fire_at, seq)``.
* :class:`Signal` is a one-shot occurrence that processes can wait on.
* :class:`Timeout` is a signal that fires after a virtual delay.
* :class:`Process` drives a generator; each ``yield`` suspends the process
  until the yielded waitable triggers.

Time is a float in **milliseconds** throughout the repository; this makes
the paper's numbers (latencies of a few ms, SLA of 10 ms) read naturally.
"""

from __future__ import annotations

import gc
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Deque, Generator, List, Optional, Tuple

__all__ = [
    "Simulator",
    "Signal",
    "Timeout",
    "Process",
    "CpuCharge",
    "SimulationError",
]


class SimulationError(Exception):
    """Raised for kernel misuse (e.g. waiting on a consumed signal)."""


class Signal:
    """A one-shot occurrence with a value or an exception.

    A signal starts *pending*; it is completed exactly once with either
    :meth:`succeed` or :meth:`fail`.  Processes wait on signals by
    yielding them.  Multiple processes may wait on the same signal.
    """

    __slots__ = ("sim", "callbacks", "_triggered", "value", "exc", "name")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        # Lazily created: most signals complete with zero or one waiter,
        # and a list allocation per signal is measurable.
        self.callbacks: Optional[List[Callable[["Signal"], None]]] = None
        self._triggered = False
        self.value: Any = None
        self.exc: Optional[BaseException] = None
        self.name = name

    @property
    def triggered(self) -> bool:
        """True once the signal has succeeded or failed."""
        return self._triggered

    @property
    def ok(self) -> bool:
        """True if the signal completed without an exception."""
        return self._triggered and self.exc is None

    def succeed(self, value: Any = None) -> "Signal":
        """Complete the signal successfully, waking all waiters now."""
        # Open-coded _complete(value, None): signal completion is the
        # single most frequent operation in a run.
        if self._triggered:
            raise SimulationError(f"signal {self.name!r} completed twice")
        self._triggered = True
        self.value = value
        callbacks = self.callbacks
        if callbacks:
            self.callbacks = None
            sim = self.sim
            now = sim.now
            immediate = sim._immediate
            arg = (self,)
            for callback in callbacks:
                sim._sequence += 1
                immediate.append((now, sim._sequence, callback, arg))
        return self

    def fail(self, exc: BaseException) -> "Signal":
        """Complete the signal with an exception.

        The exception is re-raised inside every waiting process at its
        ``yield`` site.
        """
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._complete(None, exc)
        return self

    def _complete(self, value: Any, exc: Optional[BaseException]) -> None:
        if self._triggered:
            raise SimulationError(f"signal {self.name!r} completed twice")
        self._triggered = True
        self.value = value
        self.exc = exc
        callbacks = self.callbacks
        if callbacks:
            self.callbacks = None
            # Waiters run via the immediate queue: same scheduling order
            # as schedule(0.0, ...) without touching the heap.
            sim = self.sim
            now = sim.now
            immediate = sim._immediate
            arg = (self,)
            for callback in callbacks:
                sim._sequence += 1
                immediate.append((now, sim._sequence, callback, arg))

    def add_callback(self, callback: Callable[["Signal"], None]) -> None:
        """Invoke *callback(signal)* when the signal completes.

        If the signal already completed, the callback runs at the current
        simulation time (still asynchronously, via the immediate queue).
        """
        if self._triggered:
            self.sim.call_soon(callback, self)
        elif self.callbacks is None:
            self.callbacks = [callback]
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self._triggered else "pending"
        return f"<Signal {self.name!r} {state}>"


class Timeout(Signal):
    """A signal that succeeds after ``delay`` virtual milliseconds."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # A static name: formatting one per timeout is measurable on the
        # hot path, and the delay is available as an attribute anyway.
        super().__init__(sim, name="timeout")
        self.delay = delay
        # Open-coded sim.schedule(delay, self._fire, value): one timer
        # is armed per timeout and the call layer is measurable.
        sim._sequence += 1
        if delay == 0.0:
            sim._immediate.append((sim.now, sim._sequence, self._fire, (value,)))
        else:
            heappush(
                sim._timers, (sim.now + delay, sim._sequence, self._fire, (value,))
            )

    def _fire(self, value: Any) -> None:
        # Open-coded succeed() — timer completion is the second most
        # frequent operation after signal completion — plus a
        # single-waiter inline fast path: when the simulator is idle at
        # the fire time, the immediate-queue entry succeed() would
        # append is the very next callback anyway, so the waiter runs
        # now, skipping one dispatch round-trip per timeout.  Multi-waiter
        # and not-idle cases enqueue exactly like succeed(), so the
        # executed order never changes.
        if self._triggered:
            raise SimulationError("signal 'timeout' completed twice")
        self._triggered = True
        self.value = value
        callbacks = self.callbacks
        if callbacks:
            self.callbacks = None
            sim = self.sim
            immediate = sim._immediate
            if (
                len(callbacks) == 1
                and not immediate
                and (not (timers := sim._timers) or timers[0][0] > sim.now)
            ):
                callbacks[0](self)
                return
            now = sim.now
            arg = (self,)
            for callback in callbacks:
                sim._sequence += 1
                immediate.append((now, sim._sequence, callback, arg))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self._triggered else "pending"
        return f"<Timeout delay={self.delay} {state}>"


class CpuCharge:
    """A yieldable "hold one unit of ``resource`` for ``delay`` ms".

    The one way to hold a CPU: interpreted directly by the process
    trampoline, no generator is created and no extra frame is walked on
    the resume — CPU charges are the single most frequent wait in a
    protocol simulation (:meth:`repro.sim.queues.Resource.use` is one
    ``CpuCharge``).  ``resource`` is duck typed
    (``acquire_now``/``release_unit``/``enqueue_waiter``), matching
    :class:`repro.sim.queues.Resource`.
    """

    __slots__ = ("resource", "delay")

    def __init__(self, resource: Any, delay: float) -> None:
        self.resource = resource
        self.delay = delay


class _ClosedQueue:
    """The immediate queue of a closed :class:`Simulator`: always empty,
    and an append is dropped.

    The one thing that still schedules on a closed simulator is the
    ``finally`` block of a generator dying with the run (a held CPU unit
    handed to the next waiter); that must neither fail nor keep the
    waiter alive.  (The timer heap stays a plain list: see
    :meth:`Simulator.close`.)
    """

    __slots__ = ()

    def __len__(self) -> int:
        return 0

    def append(self, entry: Tuple[float, int, Callable, tuple]) -> None:
        """Drop ``entry``."""


_CLOSED_QUEUE = _ClosedQueue()


def _clear_frames(tb: Any, stop: Any) -> None:
    """``traceback.clear_frames`` from ``tb`` down to, not including, ``stop``.

    Clearing the frame of a *suspended* generator closes that generator
    (before Python 3.13), so callers bound the walk to frames they know
    are finished.
    """
    while tb is not None and tb is not stop:
        try:
            tb.tb_frame.clear()
        except RuntimeError:  # still executing
            pass
        tb = tb.tb_next


class Process(Signal):
    """A generator-driven simulated activity.

    The generator may yield:

    * any :class:`Signal` (including :class:`Timeout` and another
      :class:`Process`) — the process resumes with the signal's value,
      or the signal's exception is raised at the yield site;
    * a non-negative ``float`` (strictly a float: a yielded int is still
      rejected, as ever) — resume after that many virtual milliseconds,
      equivalent to yielding ``sim.timeout(delay)`` but without
      allocating a signal: the timer resumes the process directly from
      the heap;
    * a :class:`CpuCharge` — resume once the unit is held for its delay;
    * ``None`` — resume on the next scheduler step (a cooperative hop).

    The process itself is a signal: it succeeds with the generator's
    return value, or fails with its uncaught exception.
    """

    __slots__ = (
        "_generator",
        "_timer_cb",
        "_wait_cb",
        "_charge_res",
        "_charge_delay",
        "_charge_start_cb",
        "_charge_timer_cb",
        "_charge_resume_cb",
    )

    def __init__(self, sim: "Simulator", generator: Generator, name: str = "") -> None:
        if not hasattr(generator, "send"):
            raise TypeError(f"Process requires a generator, got {generator!r}")
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        self._generator = generator
        # Bound once: these are scheduled on every timer yield / signal
        # wait / CPU charge, and bound-method creation per wait adds up.
        self._timer_cb = self._timer_resume
        self._wait_cb = self._on_wait_done
        self._charge_res: Any = None
        self._charge_delay = 0.0
        self._charge_start_cb = self._charge_start
        self._charge_timer_cb = self._charge_timer
        self._charge_resume_cb = self._charge_resume
        # Those callbacks make an unfinished process a cycle of its own,
        # so the simulator keeps the unfinished ones to retire on close.
        sim._processes[self] = None
        # The first step is always queued (never run inline): callers may
        # continue setting up state between process() and run().
        sim.call_soon(self._step, None, None)

    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        # Trampoline: consume already-triggered waitables in a loop
        # instead of round-tripping through the scheduler.  Inlining is
        # only legal while the simulator is *idle at the current
        # timestamp* — otherwise a queued same-time callback (with a
        # smaller sequence number) would be overtaken, changing the
        # deterministic order.  When idle, the queued resume would have
        # been the very next callback anyway, so running it now is
        # exactly equivalent.
        sim = self.sim
        generator = self._generator
        send = generator.send
        immediate = sim._immediate
        timers = sim._timers
        thrown_tb = None
        while True:
            try:
                if exc is not None:
                    thrown_tb = exc.__traceback__
                    target = generator.throw(exc)
                    # Caught.  Other waiters may yet fail with this
                    # exception, and its traceback must not lead them to
                    # the frames of a generator that lives on.
                    exc.__traceback__ = thrown_tb
                else:
                    target = send(value)
            except StopIteration as stop:
                self._retire()
                self.succeed(stop.value)
                return
            except BaseException as step_exc:  # noqa: BLE001 - must reach waiters
                self._retire()
                # The stored traceback starts at this very frame (whose
                # locals hold the process, which holds the exception)
                # and continues through the frames this resume unwound
                # (whose locals hold whatever the process worked on):
                # drop the first, clear the rest — file and line stay.
                # What the traceback held before it was thrown in is not
                # this process's to clear.
                tb = step_exc.__traceback__.tb_next
                step_exc.__traceback__ = tb
                _clear_frames(tb, thrown_tb)
                self.fail(step_exc)
                return
            if type(target) is float:
                if target < 0.0:
                    sim.call_soon(
                        self._step,
                        None,
                        SimulationError(
                            f"process {self.name!r} yielded non-waitable {target!r}"
                        ),
                    )
                    return
                # A raw delay: the timer resumes this process directly,
                # no signal allocation, no completion round-trip.
                # Fast-forward: with nothing queued at the current time,
                # no heap event at/before the fire time, and the run
                # horizon not in between, the timer entry would be the
                # very next pop — advance the clock inline instead.
                if not immediate:
                    fire_at = sim.now + target
                    until = sim._until
                    if (not timers or timers[0][0] > fire_at) and (
                        until is None or fire_at <= until
                    ):
                        sim.now = fire_at
                        value = exc = None
                        continue
                sim._sequence += 1
                if target == 0.0:
                    immediate.append((sim.now, sim._sequence, self._timer_cb, ()))
                else:
                    heappush(
                        timers, (sim.now + target, sim._sequence, self._timer_cb, ())
                    )
                return
            if type(target) is CpuCharge:
                resource = target.resource
                delay = target.delay
                if delay < 0.0:
                    # Mirror the raw-delay branch: negative work is a
                    # programming error, surfaced at the yield site.
                    sim.call_soon(
                        self._step,
                        None,
                        SimulationError(
                            f"process {self.name!r} yielded negative "
                            f"CPU charge {delay!r}"
                        ),
                    )
                    return
                if resource.acquire_now():
                    self._charge_res = resource
                    if immediate or (timers and timers[0][0] <= sim.now):
                        # Not idle: the historical triggered grant would
                        # queue one resume behind the pending callbacks;
                        # replicate it, then start the service timer.
                        self._charge_delay = delay
                        sim.call_soon(self._charge_start_cb)
                        return
                    # Service timer, mirroring the raw-delay branch
                    # (fast-forward included); release on fire.
                    fire_at = sim.now + delay
                    until = sim._until
                    if (not timers or timers[0][0] > fire_at) and (
                        until is None or fire_at <= until
                    ):
                        sim.now = fire_at
                        self._charge_res = None
                        resource.release_unit()
                        value = exc = None
                        continue
                    sim._sequence += 1
                    if delay == 0.0:
                        immediate.append(
                            (sim.now, sim._sequence, self._charge_timer_cb, ())
                        )
                    else:
                        heappush(
                            timers,
                            (sim.now + delay, sim._sequence, self._charge_timer_cb, ()),
                        )
                    return
                # Contended: wait for a unit, then run the timer.  The
                # releaser schedules the callback exactly where a grant
                # signal's completion would have queued it.
                self._charge_res = resource
                self._charge_delay = delay
                resource.enqueue_waiter(self._charge_start_cb)
                return
            if isinstance(target, Signal):
                # Already triggered and idle at now: consume it inline.
                if target._triggered:
                    if not immediate and (not timers or timers[0][0] > sim.now):
                        value, exc = target.value, target.exc
                        continue
                    sim.call_soon(self._wait_cb, target)
                    return
                # Open-coded target.add_callback(self._wait_cb): one
                # registration per wait, worth skipping the call layer.
                callbacks = target.callbacks
                if callbacks is None:
                    target.callbacks = [self._wait_cb]
                else:
                    callbacks.append(self._wait_cb)
                return
            if target is None:
                if not immediate and (not timers or timers[0][0] > sim.now):
                    value = exc = None
                    continue
                sim.call_soon(self._step, None, None)
                return
            error = SimulationError(
                f"process {self.name!r} yielded non-waitable {target!r}"
            )
            sim.call_soon(self._step, None, error)
            return

    def _retire(self) -> None:
        # A finished process must die by reference count (run() pauses
        # the cyclic collector): drop the generator and the callbacks
        # bound to this very object.
        del self.sim._processes[self]
        self._generator = self._timer_cb = self._wait_cb = None
        self._charge_start_cb = self._charge_timer_cb = self._charge_resume_cb = None

    def _abandon(self) -> None:
        """Give up on this unfinished process: its simulator is closing.

        The generator dies here (its ``finally`` blocks run).  A
        subclass also drops whatever else it holds, so that whoever
        still refers to the process — a waiter queue, a signal's
        callbacks — holds a husk that leads nowhere.
        """
        self._retire()
        self._charge_res = None  # whose waiter queue may hold this process

    def _charge_start(self) -> None:
        # Holding the unit (taken synchronously, or handed over by a
        # releaser); start the service timer.  Mirrors the raw-delay
        # yield branch, fast-forward included.
        sim = self.sim
        delay = self._charge_delay
        timers = sim._timers
        if not sim._immediate:
            fire_at = sim.now + delay
            until = sim._until
            if (not timers or timers[0][0] > fire_at) and (
                until is None or fire_at <= until
            ):
                sim.now = fire_at
                resource, self._charge_res = self._charge_res, None
                resource.release_unit()
                self._step(None, None)
                return
        sim._sequence += 1
        if delay == 0.0:
            sim._immediate.append((sim.now, sim._sequence, self._charge_timer_cb, ()))
        else:
            heappush(
                timers, (sim.now + delay, sim._sequence, self._charge_timer_cb, ())
            )

    def _charge_timer(self) -> None:
        # The service timer fired; the release runs at the (possibly
        # queued) resume, where a ``try: yield delay / finally: release``
        # would have run it.
        sim = self.sim
        timers = sim._timers
        if not sim._immediate and (not timers or timers[0][0] > sim.now):
            resource, self._charge_res = self._charge_res, None
            resource.release_unit()
            self._step(None, None)
        else:
            sim._sequence += 1
            sim._immediate.append((sim.now, sim._sequence, self._charge_resume_cb, ()))

    def _charge_resume(self) -> None:
        resource, self._charge_res = self._charge_res, None
        resource.release_unit()
        self._step(None, None)

    def _timer_resume(self) -> None:
        # Fired from the heap when a yielded raw delay elapses.  The
        # signal-based path queued the resume behind whatever else is
        # pending at the fire time; replicate that unless idle (where
        # the queued resume would run immediately anyway).
        sim = self.sim
        timers = sim._timers
        if not sim._immediate and (not timers or timers[0][0] > sim.now):
            self._step(None, None)
        else:
            sim._sequence += 1
            sim._immediate.append((sim.now, sim._sequence, self._step, (None, None)))

    def _on_wait_done(self, signal: Signal) -> None:
        self._step(signal.value, signal.exc)


class Simulator:
    """The virtual clock and scheduler.

    Determinism: scheduled callbacks with equal fire times run in
    scheduling order (a monotonically increasing sequence number breaks
    ties), so a fixed program + fixed RNG seeds always produces identical
    traces.

    Zero-delay callbacks — the bulk of a protocol simulation (signal
    completions, process resumes, same-time hops) — bypass the timer
    heap via an *immediate queue*, a FIFO deque whose entries carry the
    same ``(time, sequence)`` keys as timer entries.  The run loop
    merges the two by key, so the executed order is identical to a
    heap-only kernel while zero-delay scheduling costs O(1).

    Positive delays go to the *timer heap*: a plain list of
    ``(fire_at, sequence, callback, args)`` tuples that this module's
    hot sites drive with ``heappush``/``heappop``/``heap[0]`` directly —
    nothing outside ``sim/kernel.py`` knows it is a heap (why a heap:
    docs/ARCHITECTURE.md § Timer queue).

    A run ends with :meth:`close`, which frees whatever is still queued
    or suspended by reference count; ``run``/``process``/``schedule``
    then raise :class:`SimulationError`.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._timers: List[Tuple[float, int, Callable, tuple]] = []
        self._immediate: Deque[Tuple[float, int, Callable, tuple]] = deque()
        self._sequence = 0
        self._until: Optional[float] = None
        self._closed = False
        #: Unfinished processes, in creation order (see :meth:`close`).
        self._processes: dict = {}
        #: One succeeded signal (value ``None``) for grants that need no
        #: waiting — waiters only read it, so everyone shares it for as
        #: long as the simulator is open.
        self.ready = Signal(self, "ready").succeed(None)

    def close(self) -> None:
        """End this simulator's life; idempotent.

        Drops everything still queued, gives up on every unfinished
        process and drops the :attr:`ready` signal — the places where
        the simulator refers back to the world built on it (a queue
        entry or a process leads to a generator and whatever that works
        on; ``ready`` leads straight back here) — so a finished run is
        freed by reference count, not by a later collector pass.  The
        suspended generators die inside this call, with every other
        object of the run still whole: close the simulator *first* and
        the layers above it afterwards, so that a ``finally`` never sees
        them half cleared.  Call it between runs, not from inside one.
        """
        if self._closed:
            return
        self._closed = True
        self._immediate = _CLOSED_QUEUE
        self._timers = []
        for process in list(self._processes):
            process._abandon()
        # A dying generator's ``finally`` may still have armed a timer
        # (a lock-release message): it goes with the run.
        self._timers.clear()
        self.ready = None

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable, *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` virtual milliseconds."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        if self._closed:
            raise SimulationError("simulator is closed")
        self._sequence += 1
        if delay == 0.0:
            self._immediate.append((self.now, self._sequence, callback, args))
        else:
            heappush(self._timers, (self.now + delay, self._sequence, callback, args))

    def _schedule_at(self, fire_at: float, callback: Callable, args: tuple) -> None:
        """Arm a timer at absolute time ``fire_at`` (later than ``now``).

        :meth:`schedule` for this package's own per-event callers: no
        checks, and — unlike ``schedule`` — legal while the simulator
        closes, where the ``finally`` of a dying generator may still send
        a lock release (dropped by :meth:`close`).
        """
        self._sequence += 1
        heappush(self._timers, (fire_at, self._sequence, callback, args))

    def call_soon(self, callback: Callable, *args: Any) -> None:
        """Run ``callback(*args)`` at the current time (after pending work).

        Equivalent to ``schedule(0.0, ...)``, skipping the delay check.
        """
        self._sequence += 1
        self._immediate.append((self.now, self._sequence, callback, args))

    def signal(self, name: str = "") -> Signal:
        """Create a fresh pending :class:`Signal`."""
        return Signal(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a signal firing after ``delay`` ms."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Spawn a new process driving ``generator``."""
        if self._closed:
            raise SimulationError("simulator is closed")
        return Process(self, generator, name)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Run the simulation.

        ``until`` stops the clock at that virtual time (events scheduled
        later stay queued).  Returns the final clock value.
        """
        if self._closed:
            raise SimulationError("simulator is closed")
        timers = self._timers
        immediate = self._immediate
        self._until = until
        # The dispatch loop is an allocation storm of short-lived,
        # mostly acyclic objects; cyclic-GC generation scans in the
        # middle of it are pure overhead.  Pause collection while
        # dispatching (restored in the finally; a paused collector is
        # invisible to the simulation — determinism is unaffected).
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        # The loop merges the immediate queue and the timer heap on
        # (time, seq): both are ordered, so comparing the two fronts
        # yields the globally next callback.  Two specializations keep
        # per-dispatch branch count minimal.
        try:
            if until is None:
                while True:
                    if immediate:
                        if not timers or timers[0] >= immediate[0]:
                            entry = immediate.popleft()
                        else:
                            entry = heappop(timers)
                    elif timers:
                        entry = heappop(timers)
                    else:
                        break
                    self.now = entry[0]
                    entry[2](*entry[3])
            else:
                while True:
                    if immediate and (not timers or timers[0] >= immediate[0]):
                        entry = immediate[0]
                        if entry[0] > until:
                            self.now = until
                            return self.now
                        immediate.popleft()
                    elif timers:
                        if timers[0][0] > until:
                            self.now = until
                            return self.now
                        entry = heappop(timers)
                    else:
                        break
                    self.now = entry[0]
                    entry[2](*entry[3])
        finally:
            self._until = None
            if gc_was_enabled:
                gc.enable()
        if until is not None:
            self.now = max(self.now, until)
        return self.now

    def run_process(self, generator: Generator, name: str = "",
                    until: Optional[float] = None) -> Any:
        """Convenience: spawn ``generator`` and run until it completes.

        Returns the process return value; re-raises its exception.
        """
        proc = self.process(generator, name)
        self.run(until=until)
        if not proc.triggered:
            raise SimulationError(f"process {proc.name!r} did not finish")
        if proc.exc is not None:
            raise proc.exc
        return proc.value

    @property
    def pending_events(self) -> int:
        """Number of callbacks still queued (timer heap + immediate queue)."""
        return len(self._timers) + len(self._immediate)
