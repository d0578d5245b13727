"""A bulk population answers like the eager registry it replaces.

``create_contexts_bulk`` registers a population as one record
(``repro.core.ownership.Population``, whose owners are a cycle) and
gives a leaf its placement entry and instance on its first touch, an
ownership map entry only when a mutation names it.  These tests hold it
against a reference built the eager way — every cid and owner expanded,
``OwnershipNetwork.add_leaves`` over the list and a plain placement map
— on every query, touched or not:

* the runtime and ownership queries, with touches interleaved and a
  second population added part-way (hypothesis);
* the ownership mutations that name an untouched member: edges,
  promotions, removals and re-creations (hypothesis);
* a scale-in drain and a migration, which must move untouched leaves.
"""

from hypothesis import given, settings, strategies as st

import pytest

from repro.core import AeonRuntime
from repro.core.context import ContextClass
from repro.core.errors import AeonError, MigrationError, UnknownContextError
from repro.core.ownership import OwnershipNetwork, Population
from repro.elasticity import CloudStorage, EManager
from repro.harness.runner import make_testbed
from repro.sim import M3_LARGE

from conftest import Testbed

SHARDS = ("s-0", "s-1", "s-2")
#: Cids next to a population ``p-`` that are no member of it: a leading
#: zero, an empty suffix, a non-digit and a fullwidth digit.  The cid at
#: index ``count`` is probed as well.
NEAR_MISSES = ("p-07", "p-", "p-1x", "p-１", "q-00", "p-x")


class _Leaf(ContextClass):
    def __init__(self) -> None:
        self.hits = 0


class _Node(ContextClass):
    pass


def _outcome(call):
    """A query's answer, or the type of what it raised."""
    try:
        return call()
    except (AeonError, ValueError) as exc:
        return type(exc)


def _expand(count, cycle):
    """The owner of each of ``count`` leaves, as an eager registry lists it."""
    if cycle is None:
        return [None] * count
    return [cycle[i % len(cycle)] for i in range(count)]


def _owner_cycles(count):
    """``None`` or an owner cycle of 1 to ``count`` slots."""
    return st.none() | st.lists(
        st.sampled_from((None, *SHARDS)), min_size=1, max_size=count
    )


def _touch(runtime, reference, cid):
    """The runtime's first touch of a leaf gives it an instance and a
    placement entry, but no ownership map entry: the leaf still answers
    from its population's record, as the reference does."""
    network = runtime.ownership
    before = len(network), len(network._leaf), len(network._parents)
    assert runtime.instance_of(cid).hits == 0
    assert (len(network), len(network._leaf), len(network._parents)) == before
    population, i = network.member(cid)
    assert f"{population.prefix}{i}" == cid
    for query in ("parents", "ancestors", "dominator", "descendants"):
        assert getattr(network, query)(cid) == getattr(reference, query)(cid)
    assert network.dominator(cid, registered=True) == reference.dominator(cid)
    for owner in ("region", *SHARDS):
        assert network.owns(owner, cid) == reference.owns(owner, cid)


@st.composite
def _layouts(draw):
    """Servers, two populations and the step at which the second joins."""
    populations = []
    for prefix in ("p-", draw(st.sampled_from(("q-", "p-x")))):
        count = draw(st.integers(1, 60))
        populations.append((prefix, count, draw(_owner_cycles(count))))
    steps = draw(
        st.lists(
            st.tuples(st.sampled_from(("touch", "query")), st.integers(0, 200)),
            max_size=12,
        )
    )
    return draw(st.integers(1, 4)), populations, draw(st.integers(0, len(steps))), steps


def _probes(populations):
    """Every member, the cid at index ``count``, the near misses, then the
    owners (whose child sets a query fills)."""
    cids = [*NEAR_MISSES]
    for prefix, count, _parents in populations:
        cids.extend(f"{prefix}{i}" for i in range(count + 1))
    return [*cids, *SHARDS, "region"]


def _assert_same_network(network, reference, probes):
    """Every ownership query agrees, cid by cid first: the enumerations
    fill the child sets, so the cid queries run before them."""
    owners = ["region", *SHARDS]
    for cid in probes:
        assert (cid in network) == (cid in reference), cid
        for query in (
            "parents", "ancestors", "dominator", "children", "descendants",
        ):
            assert _outcome(lambda: getattr(network, query)(cid)) == _outcome(
                lambda: getattr(reference, query)(cid)
            ), (query, cid)
        if cid in reference:
            assert network.dominator(cid, registered=True) == reference.dominator(cid)
        for owner in owners:
            assert _outcome(lambda: network.owns(owner, cid)) == _outcome(
                lambda: reference.owns(owner, cid)
            ), (owner, cid)
            assert _outcome(lambda: network.owns(cid, owner)) == _outcome(
                lambda: reference.owns(cid, owner)
            ), (cid, owner)
    assert len(network) == len(reference)
    assert network.snapshot() == reference.snapshot()
    assert sorted(network.contexts()) == sorted(reference.contexts())
    assert sorted(network.roots()) == sorted(reference.roots())
    assert sorted(network.edges()) == sorted(reference.edges())


@given(_layouts())
@settings(max_examples=100, deadline=None)
def test_population_answers_like_the_eager_registry(layout):
    n_servers, populations, join_at, steps = layout
    with make_testbed("aeon", n_servers, seed=0) as testbed:
        runtime, servers = testbed.runtime, testbed.servers
        region = runtime.create_context(_Node, server=servers[0], name="region")
        refs = {
            shard: runtime.create_context(
                _Node, owners=[region], server=servers[i % n_servers], name=shard
            )
            for i, shard in enumerate(SHARDS)
        }
        reference = OwnershipNetwork()
        reference.add_context("region")
        for shard in SHARDS:
            reference.add_context(shard, parents=["region"])
        placement = dict(runtime.placement)
        registered = []

        def register(prefix, count, parents):
            runtime.create_contexts_bulk(
                _Leaf, prefix, count, servers,
                parents=None if parents is None else [
                    None if p is None else refs[p] for p in parents
                ],
            )
            cids = [f"{prefix}{i}" for i in range(count)]
            reference.add_leaves(cids, _expand(count, parents))
            placement.update(
                (cid, servers[i % n_servers].name) for i, cid in enumerate(cids)
            )
            registered.extend(cids)

        def compare():
            probes = _probes(populations)
            _assert_same_network(runtime.ownership, reference, probes)
            assert dict(runtime.placement_items()) == placement
            assert runtime.context_count() == 1 + len(SHARDS) + len(registered)
            for cid in probes:
                if cid in placement:
                    assert runtime.server_of(cid).name == placement[cid]
                    assert runtime.host_of(cid) == placement[cid]
                else:
                    assert runtime.host_of(cid) is None
                    with pytest.raises(UnknownContextError):
                        runtime.server_of(cid)
                    with pytest.raises(UnknownContextError):
                        runtime.instance_of(cid)

        register(*populations[0])
        for position, (kind, pick) in enumerate(steps):
            if position == join_at:
                register(*populations[1])
            if kind == "touch":
                cid = registered[pick % len(registered)]
                _touch(runtime, reference, cid)
                assert runtime.placement[cid] == placement[cid]
            else:
                compare()
        if join_at >= len(steps):
            register(*populations[1])
        compare()
        # A registered cid is refused by create_context and by a later
        # population, touched or not.
        for cid in (registered[0], registered[-1]):
            with pytest.raises(ValueError):
                runtime.create_context(_Node, name=cid)
        for prefix, count, _parents in populations:
            with pytest.raises(ValueError):
                runtime.create_contexts_bulk(_Leaf, prefix, 1, servers)
        compare()


@st.composite
def _mutations(draw):
    count = draw(st.integers(1, 30))
    parents = draw(
        st.lists(st.sampled_from((None, *SHARDS)), min_size=1, max_size=count)
    )
    # n-0 and n-1 exist once the first two steps created them.
    names = st.sampled_from(("region", *SHARDS, "n-0", "n-1", "p-07")) | st.builds(
        "p-{}".format, st.integers(0, count)
    )
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(
                    ("edge", "unedge", "leaf_under", "two_owners", "remove", "recreate")
                ),
                names,
                names,
            ),
            min_size=1,
            max_size=10,
        )
    )
    return count, parents, ops


@given(_mutations())
@settings(max_examples=100, deadline=None)
def test_a_mutation_naming_an_untouched_member_touches_it_first(case):
    count, parents, ops = case
    cids = [f"p-{i}" for i in range(count)]
    networks = []
    for eager in (True, False):
        network = OwnershipNetwork()
        network.add_context("region")
        for shard in SHARDS:
            network.add_context(shard, parents=["region"])
        if eager:
            network.add_leaves(cids, _expand(count, parents))
        else:
            network.add_population(Population("p-", count, (), tuple(parents)))
        networks.append(network)
    probes = [*NEAR_MISSES, *cids, f"p-{count}", "n-0", "n-1", *SHARDS, "region"]
    for step, (op, a, b) in enumerate(ops):
        outcomes = []
        for network in networks:
            mutation = {
                "edge": lambda: network.add_edge(a, b),
                "unedge": lambda: network.remove_edge(a, b),
                "leaf_under": lambda: network.add_context(f"n-{step}", parents=[a]),
                "two_owners": lambda: network.add_context(f"n-{step}", parents=[a, b]),
                "remove": lambda: network.remove_context(a),
                "recreate": lambda: network.add_leaves([a], [None]),
            }[op]
            outcomes.append(_outcome(mutation))
        assert outcomes[0] == outcomes[1], (op, a, b)
        _assert_same_network(networks[1], networks[0], probes + [f"n-{step}"])


def test_prefixes_overlap_only_where_a_cid_is_shared():
    network = OwnershipNetwork()
    network.add_population(Population("p-1", 5))
    # "p-1" + "0" is p-10, the first index past "p-"'s count: no shared cid.
    network.add_population(Population("p-", 10))
    assert network.member("p-10")[0].prefix == "p-1"
    assert network.member("p-9")[0].prefix == "p-"
    # A suffix with a leading zero is never a member of "p-", and an
    # empty population shares nothing.
    network.add_population(Population("p-0", 3))
    network.add_population(Population("p-", 0))
    assert len(network) == 5 + 10 + 3
    other = OwnershipNetwork()
    other.add_population(Population("p-1", 5))
    with pytest.raises(ValueError, match="'p-10'"):
        other.add_population(Population("p-", 11))
    with pytest.raises(ValueError, match="'p-10'"):
        network.add_population(Population("p-1", 1))
    with pytest.raises(ValueError, match="virtual"):
        network.add_population(Population("~vroot:", 2))
    # An owner cycle has 1 to ``count`` slots: a longer one's tail would
    # own no leaf.
    with pytest.raises(ValueError, match="at least one slot"):
        Population("p-", 3, parents=())
    with pytest.raises(ValueError, match="longer than its 3 contexts"):
        Population("p-", 3, parents=("s-0",) * 4)
    with pytest.raises(ValueError, match="longer than its 0 contexts"):
        Population("p-", 0, parents=("s-0",))
    assert len(network) == 5 + 10 + 3 and len(other) == 5


def _bed_with_population(count=12):
    bed = Testbed(AeonRuntime, n_servers=3, record_history=False)
    runtime = bed.runtime
    runtime.create_contexts_bulk(_Leaf, "p-", count, bed.servers)
    manager = EManager(
        runtime, CloudStorage(bed.sim), None, M3_LARGE, report_interval_ms=100.0
    )
    return bed, runtime, manager


def test_scale_in_drain_moves_untouched_members():
    """A drain lists the drained server's untouched leaves and moves them
    (touching each first), so the server empties and is decommissioned."""
    bed, runtime, manager = _bed_with_population()
    drained = bed.servers[1].name
    on_drained = [f"p-{i}" for i in range(1, 12, 3)]
    runtime.instance_of("p-1")  # one touched, three untouched
    listed = [cid for cid, host in runtime.placement_items() if host == drained]
    assert listed == on_drained
    assert [cid for cid in on_drained if cid in runtime.placement] == ["p-1"]
    bed.sim.process(manager._drain_and_remove(drained))
    bed.run()
    assert drained not in runtime.cluster.servers
    for cid in on_drained:
        assert runtime.placement[cid] != drained and cid in runtime.instances
    assert runtime.context_count() == 12


def test_a_registered_dominator_query_parses_no_cid(monkeypatch):
    """The runtime's event path vouches for its target: a member in
    neither map is its own dominator without a parse, and writes no map
    entry.  Without the keyword an unknown cid still raises."""
    bed, runtime, _manager = _bed_with_population()
    network = runtime.ownership
    runtime.instance_of("p-3")
    sizes = len(network._leaf), len(network._parents)

    def no_parse(*_args, **_kwargs):
        raise AssertionError("member() was called")

    monkeypatch.setattr(network, "member", no_parse)
    assert [network.dominator(f"p-{i}", registered=True) for i in (3, 4)] == ["p-3", "p-4"]
    assert (len(network._leaf), len(network._parents)) == sizes
    monkeypatch.undo()
    assert network.dominator("p-3") == "p-3"
    for unknown in ("p-12", "p-03", "nobody"):
        with pytest.raises(UnknownContextError):
            network.dominator(unknown)


def test_migrating_an_untouched_member_touches_it_first():
    bed, runtime, manager = _bed_with_population()
    dst = bed.servers[2]
    assert runtime.host_of("p-4") == bed.servers[1].name
    done = manager.coordinator.migrate("p-4", dst)
    bed.run()
    assert done.ok
    assert runtime.placement["p-4"] == runtime.server_of("p-4").name == dst.name
    assert runtime.instance_of("p-4").hits == 0
    assert [s.context_count for s in bed.servers] == [4, 3, 5]
    with pytest.raises(MigrationError, match="unknown context 'p-12'"):
        manager.coordinator.migrate("p-12", dst)
