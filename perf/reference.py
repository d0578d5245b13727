"""The reference loop: how fast is this machine interpreting Python *now*.

The box the benchmark is calibrated on is a small shared VM whose speed
changes under the benchmark's feet: by 10-30 % for a minute at a time,
by a factor of two for half an hour, and in stalls of a second when the
host takes the processor away.  No statistic over a run's passes can
average away a change that lasts as long as the run.  What a run can do
is measure the machine beside the program.  After every unit of a pass
(a fraction of a second of the program) the measured process times this
fixed loop, which uses the standard library only — nothing under
``src/`` — and so costs the same on every commit.  ``run.py`` divides
each unit sample by the reference samples around it; a pass reported as
2.0 s is one that takes 2.0 s on a machine that runs the reference loop
in exactly ``NOMINAL_S``.  The raw unit and reference times are printed
and recorded beside the corrected ones.  ``perf/README.md`` has the
calibration that compares the two.

The loop has the shape of the simulator's hot path — generators resumed
off a heap of ``(time, id)`` tuples, a dict of per-actor state, a bounded
log — because interference does not slow all code alike, and the closer
the reference is to the program the more of it cancels.
"""

from __future__ import annotations

import gc
import time
from collections import deque
from heapq import heappop, heappush
from typing import Deque, Dict, Generator, List, Tuple

#: Resumptions per call; 0.125-0.145 s on the calibration box.
ROUNDS = 200_000

#: Seconds one call takes on the calibration box on an ordinary minute
#: (2-core Xeon @ 2.1 GHz VM, Python 3.11).  The unit of every corrected
#: timing: changing it, or the loop, rescales all of them at once.
NOMINAL_S = 0.145


def _actor(index: int) -> Generator[float, float, None]:
    now = 0.0
    step = 0.5 + (index % 7) * 0.25
    while True:
        now = yield now + step


def reference_loop(rounds: int = ROUNDS) -> float:
    """Run the loop once; return the seconds it took.

    The collector is paused, as ``Simulator.run`` pauses it: a cyclic
    collection costs as much as the process has live objects, and the
    reference must not depend on what the program left behind.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _timed_loop(rounds)
    finally:
        if gc_was_enabled:
            gc.enable()


def _timed_loop(rounds: int) -> float:
    start = time.perf_counter()
    heap: List[Tuple[float, int]] = []
    actors = [_actor(index) for index in range(512)]
    for index, actor in enumerate(actors):
        heappush(heap, (next(actor), index))
    state: Dict[int, List[float]] = {}
    log: Deque[Tuple[float, int]] = deque(maxlen=4096)
    for _ in range(rounds):
        now, index = heappop(heap)
        entry = state.get(index)
        if entry is None:
            entry = state[index] = [0.0, 0.0]
        entry[0] += 1.0
        entry[1] = now
        heappush(heap, (actors[index].send(now), index))
        log.append((now, index))
    return time.perf_counter() - start
