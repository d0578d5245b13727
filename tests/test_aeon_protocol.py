"""Integration tests of the AEON execution protocol (Algorithm 2)."""

import pytest

from repro.core import AeonRuntime, ContextClass, CostModel, Ref, RefSet
from repro.core.errors import (
    AeonError,
    OwnershipViolationError,
    ReadOnlyViolationError,
)
from repro.core.events import AccessMode, async_, compute

from conftest import (
    Cell,
    Group,
    Testbed,
    Worker,
    build_group,
    check_stale_cache_pays_forward_hop,
)


# ----------------------------------------------------------------------
# Basic event execution
# ----------------------------------------------------------------------
def test_event_executes_and_returns_result(aeon_bed):
    _group, workers, _shared = build_group(aeon_bed)
    event = aeon_bed.run_event(workers[0].bump_all(2))
    assert event.error is None
    assert event.result == 1  # first step counter
    cells = aeon_bed.runtime.instance_of(workers[0]).cells.refs()
    values = [aeon_bed.runtime.instance_of(c).value for c in cells]
    assert all(v == 2 for v in values)


def test_event_latency_recorded(aeon_bed):
    _group, workers, _ = build_group(aeon_bed)
    aeon_bed.run_event(workers[0].bump_all())
    assert aeon_bed.runtime.latency.count() == 1
    assert aeon_bed.runtime.latency.mean_latency() > 0


def test_unknown_method_raises_at_submit(aeon_bed):
    _group, workers, _ = build_group(aeon_bed)
    with pytest.raises(AeonError):
        aeon_bed.submit(workers[0].call("no_such_method"))


class _Child(ContextClass):
    pass


class _Parent(ContextClass):
    child = Ref(_Child)

    def get_child(self):
        return self.child


def test_method_returning_a_ref_completes(aeon_bed):
    """A ref answers every public name, ``send`` and ``throw`` included:
    the body driver must not take a returned ref for a generator body
    (it used to send into it and throw into it forever)."""
    runtime = aeon_bed.runtime
    parent = runtime.create_context(_Parent, server=aeon_bed.servers[0], name="parent")
    child = runtime.create_context(
        _Child, owners=[parent], server=aeon_bed.servers[1], name="child"
    )
    runtime.instance_of(parent).child = child
    event = aeon_bed.run_event(parent.get_child(), horizon=50.0)
    assert event.result == child
    assert event.error is None


class _Halt(BaseException):
    """Not an ``Exception``: nothing on the event path may swallow it."""


class _Halting(ContextClass):
    def halt(self):
        raise _Halt("stop")


def test_base_exception_from_a_body_reaches_the_submitter(aeon_bed):
    """Only an ``Exception`` becomes ``event.error``.  Any other
    ``BaseException`` fails the signal ``submit`` returned, so whatever
    waits on it gets it thrown in — after the event has finished and
    let go of its locks."""
    runtime = aeon_bed.runtime
    halting = runtime.create_context(_Halting, server=aeon_bed.servers[0], name="h")
    done = aeon_bed.submit(halting.halt())
    caught = []

    def submitter():
        try:
            yield done
        except _Halt as exc:
            caught.append(exc)

    aeon_bed.sim.process(submitter())
    aeon_bed.run()
    assert done.triggered and isinstance(done.exc, _Halt)
    assert caught == [done.exc]
    assert runtime.events_completed == 1
    assert not any(lock.is_held() for lock in runtime.locks.values())


def test_plain_method_call_supported(aeon_bed):
    """Non-generator methods execute directly."""
    runtime = aeon_bed.runtime
    cell = runtime.create_context(Cell, server=aeon_bed.servers[0], name="solo")
    event = aeon_bed.run_event(cell.add(5))
    assert event.result == 5
    assert runtime.instance_of(cell).value == 5


# ----------------------------------------------------------------------
# Dominator sequencing
# ----------------------------------------------------------------------
def test_dominator_is_group_for_sharing_workers(aeon_bed):
    group, workers, _shared = build_group(aeon_bed, shared_cells=1)
    event = aeon_bed.run_event(workers[0].bump_all())
    assert event.dom == group.cid


def test_dominator_is_self_without_sharing(aeon_bed):
    _group, workers, _ = build_group(aeon_bed, shared_cells=0)
    event = aeon_bed.run_event(workers[0].bump_all())
    assert event.dom == workers[0].cid


def test_conflicting_events_serialize_on_shared_cell(aeon_bed):
    _group, workers, shared = build_group(aeon_bed, n_workers=2, shared_cells=1)
    done = [aeon_bed.submit(w.bump_all()) for w in workers for _ in range(10)]
    aeon_bed.run()
    assert all(d.triggered and d.value.error is None for d in done)
    assert aeon_bed.runtime.instance_of(shared[0]).value == 20
    aeon_bed.runtime.check_history()


def test_non_conflicting_workers_overlap_in_time(aeon_bed):
    """Workers without shared cells execute concurrently."""
    _group, workers, _ = build_group(aeon_bed, n_workers=2, shared_cells=0)
    first = aeon_bed.submit(workers[0].crunch(50.0))
    second = aeon_bed.submit(workers[1].crunch(50.0))
    aeon_bed.run()
    e1, e2 = first.value, second.value
    # Each took ~19ms of wall (50 unit / 2.6); overlapping means both
    # finished well before the 2x serial bound.
    assert max(e1.committed_ms, e2.committed_ms) < 1.5 * 50 / 2.6 + 5


def test_same_dominator_events_do_not_overlap(aeon_bed):
    _group, workers, _ = build_group(aeon_bed, n_workers=2, shared_cells=1)
    first = aeon_bed.submit(workers[0].crunch(50.0))
    second = aeon_bed.submit(workers[1].crunch(50.0))
    aeon_bed.run()
    spans = sorted(
        (e.value.started_ms, e.value.committed_ms) for e in (first, second)
    )
    # Exclusive dominator: the second execution starts after the first
    # commits (modulo release-message latency).
    assert spans[1][0] >= spans[0][1] - 1.0


# ----------------------------------------------------------------------
# Read-only events
# ----------------------------------------------------------------------
def test_readonly_events_share_dominator(aeon_bed):
    group, workers, _ = build_group(aeon_bed, n_workers=2, shared_cells=1)
    first = aeon_bed.submit(workers[0].slow_scan(30.0))
    second = aeon_bed.submit(workers[1].slow_scan(30.0))
    aeon_bed.run()
    e1, e2 = first.value, second.value
    assert e1.mode is AccessMode.RO and e2.mode is AccessMode.RO
    # RO events overlap: the later start precedes the earlier commit.
    assert max(e1.started_ms, e2.started_ms) < min(e1.committed_ms, e2.committed_ms)


def test_readonly_event_cannot_mutate(aeon_bed):
    class BadReader(Worker):
        from repro.core.context import readonly as _ro

        @_ro
        def sneaky(self):
            for cell in self.cells:
                yield cell.add(1)  # add() is not readonly

    runtime = aeon_bed.runtime
    bad = runtime.create_context(BadReader, server=aeon_bed.servers[0], name="bad")
    cell = runtime.create_context(Cell, owners=[bad], server=aeon_bed.servers[0])
    runtime.instance_of(bad).cells.add(cell)
    event = aeon_bed.run_event(bad.sneaky())
    assert isinstance(event.error, ReadOnlyViolationError)
    assert runtime.instance_of(cell).value == 0


def test_reads_recorded_not_written(aeon_bed):
    _group, workers, _ = build_group(aeon_bed)
    event = aeon_bed.run_event(workers[0].read_cells())
    assert event.writes == {}
    assert workers[0].cid in event.reads


# ----------------------------------------------------------------------
# Ownership discipline
# ----------------------------------------------------------------------
def test_call_outside_ownership_rejected(aeon_bed):
    class Rogue(Worker):
        def poke_foreign(self, foreign_ref):
            yield foreign_ref.add(1)

    runtime = aeon_bed.runtime
    rogue = runtime.create_context(Rogue, server=aeon_bed.servers[0], name="rogue")
    foreign = runtime.create_context(Cell, server=aeon_bed.servers[0], name="foreign")
    event = aeon_bed.run_event(rogue.poke_foreign(foreign))
    assert isinstance(event.error, OwnershipViolationError)


def test_error_in_body_releases_locks(aeon_bed):
    class Exploder(Worker):
        def explode(self):
            yield self.cells.refs()[0].add(1)
            raise RuntimeError("kaboom")

    runtime = aeon_bed.runtime
    boom = runtime.create_context(Exploder, server=aeon_bed.servers[0], name="boom")
    cell = runtime.create_context(Cell, owners=[boom], server=aeon_bed.servers[0])
    runtime.instance_of(boom).cells.add(cell)
    event = aeon_bed.run_event(boom.explode())
    assert isinstance(event.error, RuntimeError)
    # Subsequent events proceed: no lock leaked.
    event2 = aeon_bed.run_event(cell.add(1))
    assert event2.error is None
    assert boom.cid not in runtime.locks and cell.cid not in runtime.locks


class _SlowCell(Cell):
    def slow_add(self, delta):
        yield compute(5.0)
        return self.add(delta)


class _Spawner(ContextClass):
    cells = RefSet(_SlowCell)

    def spawn_then_fail(self):
        for cell in self.cells:
            yield async_(cell.slow_add(1))
        raise RuntimeError("kaboom")


def test_async_branch_outliving_its_failed_event_leaves_no_lock(aeon_bed, monkeypatch):
    """A body that fails after spawning async calls finishes its event at
    once, which releases everything the event holds; each async branch
    closes later, finds nothing left to release and ends cleanly."""
    branches = []
    spawn = aeon_bed.sim.process

    def spawn_and_keep(*args, **kwargs):
        branches.append(spawn(*args, **kwargs))
        return branches[-1]

    monkeypatch.setattr(aeon_bed.sim, "process", spawn_and_keep)
    runtime = aeon_bed.runtime
    spawner = runtime.create_context(_Spawner, server=aeon_bed.servers[0], name="sp")
    cells = [
        runtime.create_context(_SlowCell, owners=[spawner], server=server)
        for server in (*aeon_bed.servers, aeon_bed.servers[0])
    ]
    for cell in cells:
        runtime.instance_of(spawner).cells.add(cell)
    event = aeon_bed.run_event(spawner.spawn_then_fail())
    assert isinstance(event.error, RuntimeError)
    assert runtime.events_inflight == 0 and not runtime.locks
    assert len(branches) == 3 and all(b.triggered and b.exc is None for b in branches)
    assert aeon_bed.run_event(cells[0].add(1)).error is None
    assert not runtime.locks


def test_body_can_catch_nested_call_error(aeon_bed):
    class Catcher(Worker):
        def try_poke(self, foreign_ref):
            try:
                yield foreign_ref.add(1)
            except OwnershipViolationError:
                return "caught"
            return "not caught"

    runtime = aeon_bed.runtime
    catcher = runtime.create_context(Catcher, server=aeon_bed.servers[0], name="catcher")
    foreign = runtime.create_context(Cell, server=aeon_bed.servers[0], name="foreign2")
    event = aeon_bed.run_event(catcher.try_poke(foreign))
    assert event.error is None
    assert event.result == "caught"


# ----------------------------------------------------------------------
# Asynchronous calls and sub-events
# ----------------------------------------------------------------------
def test_async_calls_joined_before_completion(aeon_bed):
    _group, workers, _ = build_group(aeon_bed, n_workers=1, private_cells=3)
    event = aeon_bed.run_event(workers[0].bump_all_async(4))
    assert event.error is None
    runtime = aeon_bed.runtime
    for cell in runtime.instance_of(workers[0]).cells:
        assert runtime.instance_of(cell).value == 4


def test_group_fanout_async(aeon_bed):
    group, workers, shared = build_group(aeon_bed, n_workers=3, shared_cells=1)
    event = aeon_bed.run_event(group.fan_out(1))
    assert event.error is None
    assert aeon_bed.runtime.instance_of(shared[0]).value == 3
    aeon_bed.runtime.check_history()


def test_sub_event_runs_after_creator(aeon_bed):
    _group, workers, _ = build_group(aeon_bed, n_workers=2, shared_cells=0)
    spec = workers[0].chain(workers[1].bump_all())
    done = aeon_bed.submit(spec, tag="creator")
    aeon_bed.run()
    creator = done.value
    assert creator.error is None
    # The dispatched sub-event committed after the creator.
    runtime = aeon_bed.runtime
    assert runtime.instance_of(workers[1]).steps == 1
    subs = [ev for ev in runtime.history.events if ev.tag.endswith("sub")]
    assert len(subs) == 1
    assert len(runtime.latency.latencies(tag="creator/sub")) == 1
    assert subs[0].submitted_ms >= creator.committed_ms - 1e-9


# ----------------------------------------------------------------------
# Chain release (early release) vs strict hold
# ----------------------------------------------------------------------
def test_chain_release_allows_pipeline_overlap():
    strict = Testbed(AeonRuntime, costs=CostModel(early_release=False))
    chained = Testbed(AeonRuntime, costs=CostModel(early_release=True))
    results = {}
    for name, bed in (("strict", strict), ("chain", chained)):
        group, workers, _shared = build_group(bed, n_workers=2, shared_cells=1)
        done = [bed.submit(w.crunch(20.0)) for w in workers for _ in range(5)]
        bed.run()
        assert all(d.triggered for d in done)
        results[name] = bed.sim.now
        bed.runtime.check_history()
    # Identical work, same serialization points: chain release can only
    # finish earlier or at the same time.
    assert results["chain"] <= results["strict"] + 1e-6


def test_both_release_modes_strictly_serializable(aeon_bed):
    for early in (True, False):
        bed = Testbed(AeonRuntime, costs=CostModel(early_release=early))
        _group, workers, shared = build_group(bed, n_workers=3, shared_cells=2)
        done = [bed.submit(w.bump_all()) for w in workers for _ in range(8)]
        bed.run()
        assert all(d.triggered and d.value.error is None for d in done)
        assert bed.runtime.instance_of(shared[0]).value == 24
        bed.runtime.check_history()


# ----------------------------------------------------------------------
# Client location caching
# ----------------------------------------------------------------------
def test_client_cache_learns_location(aeon_bed):
    _group, workers, _ = build_group(aeon_bed)
    aeon_bed.run_event(workers[0].bump_all())
    cached = aeon_bed.client.locate(workers[0].cid)
    assert cached == aeon_bed.runtime.placement[workers[0].cid]


def test_stale_cache_pays_forward_hop(aeon_bed):
    check_stale_cache_pays_forward_hop(aeon_bed)


# ----------------------------------------------------------------------
# Stress: no deadlock, strict serializability under mixed load
# ----------------------------------------------------------------------
def test_mixed_load_stress_serializable(aeon_bed):
    """Race-free mixed load: sync sharing + async fan-out over disjoint
    children stays strictly serializable under chain release.

    Note the paper's §4 rule: asynchronous calls that update *common*
    children are a programming error (no semantics); the fan-out group
    here therefore has no shared cells (see
    test_racy_async_fanout_contract for the erroneous case).
    """
    group, workers, shared = build_group(
        aeon_bed, n_workers=4, shared_cells=2, private_cells=2
    )
    fan_group, _fan_workers, _ = build_group(
        aeon_bed, n_workers=3, shared_cells=0, private_cells=2
    )
    done = []
    for round_no in range(15):
        for i, worker in enumerate(workers):
            done.append(aeon_bed.submit(worker.bump_all()))
            if i % 2 == 0:
                done.append(aeon_bed.submit(worker.read_cells()))
        done.append(aeon_bed.submit(fan_group.fan_out()))
        done.append(aeon_bed.submit(group.nr_workers()))
    aeon_bed.run(horizon=300000)
    stuck = [d for d in done if not d.triggered]
    assert not stuck, f"{len(stuck)} events never completed"
    errors = [d.value.error for d in done if d.value.error]
    assert not errors, errors[:3]
    aeon_bed.runtime.check_history()
    assert aeon_bed.runtime.events_inflight == 0 and not aeon_bed.runtime.locks


def test_racy_async_fanout_contract():
    """§4: async calls updating common children are a programming error.

    Under strict hold-till-commit the runtime still serializes such
    programs; under chain release (the paper's pipelined performance
    mode) the race becomes observable — which is exactly the
    coarse-grained-interleaving semantics the paper assigns to it.
    """
    strict = Testbed(AeonRuntime, costs=CostModel(early_release=False))
    group, workers, shared = build_group(
        strict, n_workers=4, shared_cells=2, private_cells=1
    )
    done = []
    for _ in range(10):
        done.append(strict.submit(group.fan_out()))
        for worker in workers:
            done.append(strict.submit(worker.bump_all()))
    strict.run(horizon=300000)
    assert all(d.triggered and d.value.error is None for d in done)
    # Hold-till-commit keeps even the racy program strictly serializable.
    strict.runtime.check_history()
