"""Pinned timelines of one uncontended event on each runtime.

Every message a server sends for an event — a stale-cache forward,
AEON's ACT and EXEC, EventWave's route down the tree, a nested call and
its return, an asynchronous hop, the reply — charges the sender's CPU
for serialization (``net_cpu_ms``) and then waits the link's latency;
the client's own send only waits.  The figure goldens pin that accounting only through
whole figures; these pins show it for one event on an idle two-server
testbed: the instant its body started, the instant it committed and the
latency its client saw.  A co-located hop sends nothing and charges
nothing, so the co-located cases pin that too.
"""

import pytest

from repro.baselines import EventWaveRuntime, OrleansRuntime
from repro.core import AeonRuntime

from conftest import Cell, Group, Testbed, Worker

RUNTIMES = {"aeon": AeonRuntime, "eventwave": EventWaveRuntime, "orleans": OrleansRuntime}


def _world(bed, cell_host, worker_host=0, sibling=False):
    """``group -> worker -> cell``, ``group`` on server 0 and the others
    on the server indices given; returns (worker, cell).  With
    ``sibling``, a second worker on the first one's server owns the cell
    too, which makes ``group`` the first worker's dominator (AEON)."""
    runtime, servers = bed.runtime, bed.servers
    group = runtime.create_context(Group, server=servers[0], name="group")
    workers = []
    for i in range(2 if sibling else 1):
        worker = runtime.create_context(
            Worker, owners=[group], server=servers[worker_host], name=f"worker-{i}"
        )
        runtime.instance_of(group).workers.add(worker)
        workers.append(worker)
    cell = runtime.create_context(
        Cell, owners=[workers[0]], server=servers[cell_host], name="cell"
    )
    for worker in workers:
        runtime.instance_of(worker).cells.add(cell)
    return workers[0], cell


def _colocated(bed):
    _worker, cell = _world(bed, cell_host=0)
    return cell.add(1)


def _remote_sequencer(bed):
    # AEON: the worker on server 1, its dominator ``group`` on server 0
    # (ACT there, EXEC back).  EventWave: the root on server 0 routes
    # down to server 1.  Orleans: the grain on server 1 (a grain turn
    # has no sequencer).
    aeon = bed.runtime.system_name == "aeon"
    worker, _cell = _world(bed, cell_host=1, worker_host=1, sibling=aeon)
    return worker.crunch(1.0)


def _stale_cache(bed):
    _worker, cell = _world(bed, cell_host=1)
    bed.client.learn("cell", bed.servers[0].name)
    return cell.add(1)


def _remote_sync_call(bed):
    worker, _cell = _world(bed, cell_host=1)
    return worker.bump_all()


def _remote_async_call(bed):
    worker, _cell = _world(bed, cell_host=1)
    return worker.bump_all_async()


CASES = {
    "colocated": _colocated,
    "remote_sequencer": _remote_sequencer,
    "stale_cache": _stale_cache,
    "remote_sync_call": _remote_sync_call,
    "remote_async_call": _remote_async_call,
}


def timeline(system, case):
    """``(started_ms, committed_ms, client latency ms)`` of one event."""
    bed = Testbed(RUNTIMES[system], n_servers=2)
    spec = CASES[case](bed)
    event = bed.run_event(spec)
    assert event.error is None
    (latency,) = bed.runtime.latency.latencies()
    return event.started_ms, event.committed_ms, latency


#: Taken from the tree before the hop, the ingress and the branch close
#: each became one ``RuntimeBase`` method.  EventWave never reads the
#: client's cache, so it has no stale-cache case.
PINNED = {
    ("aeon", "colocated"): (0.26315912087912086, 0.27854373626373624, 0.630549010989011),
    ("aeon", "remote_sequencer"): (0.9599309890109888, 1.3599309890109887, 1.7119362637362634),
    ("aeon", "stale_cache"): (0.6151643956043955, 0.6305490109890108, 0.9825542857142856),
    ("aeon", "remote_sync_call"): (0.26315912087912086, 0.9964694505494504, 1.3484747252747251),
    ("aeon", "remote_async_call"): (0.26315912087912086, 0.6488527472527471, 1.0008580219780219),
    ("eventwave", "colocated"): (0.42892835164835164, 0.45354373626373623, 0.805549010989011),
    ("eventwave", "remote_sequencer"): (0.42892835164835164, 1.1819296703296702, 1.533934945054945),
    ("eventwave", "remote_sync_call"): (0.42892835164835164, 1.1676232967032965, 1.5196285714285713),
    ("eventwave", "remote_async_call"): (0.42892835164835164, 1.1676232967032965, 1.5196285714285713),
    ("orleans", "colocated"): (0.26392835164835166, 0.2854668131868132, 0.6759336263736264),
    ("orleans", "remote_sequencer"): (0.26392835164835166, 0.8239283516483517, 1.2143951648351647),
    ("orleans", "stale_cache"): (0.6543951648351649, 0.6759336263736264, 1.0664004395604396),
    ("orleans", "remote_sync_call"): (0.26392835164835166, 1.0872386813186812, 1.4777054945054944),
    ("orleans", "remote_async_call"): (0.26392835164835166, 1.0872386813186812, 1.4777054945054944),
}


@pytest.mark.parametrize("system,case", sorted(PINNED))
def test_uncontended_event_timeline_pinned(system, case):
    assert timeline(system, case) == PINNED[system, case]


def test_every_hop_kind_is_pinned():
    assert {case for _system, case in PINNED} == set(CASES)
    assert {system for system, _case in PINNED} == set(RUNTIMES)
    assert ("eventwave", "stale_cache") not in PINNED
