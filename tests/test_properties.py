"""Property-based tests (hypothesis) for core data structures.

Oracles: networkx for graph-theoretic properties of the ownership
network, brute-force recomputation for the incremental caches, and the
locking/history invariants under arbitrary schedules.
"""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import OwnershipCycleError, UnknownContextError
from repro.core.events import AccessMode, CallSpec, Event
from repro.core.history import HistoryRecorder
from repro.core.locking import ContextLock
from repro.core.ownership import OwnershipNetwork
from repro.sim.kernel import Simulator
from repro.sim.metrics import percentile


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def ownership_dags(draw):
    """A random DAG built the way runtimes build them: children later.

    Returns (network, node_names).  Nodes pick 0-3 parents among earlier
    nodes, so the graph is acyclic by construction.
    """
    n = draw(st.integers(min_value=1, max_value=14))
    network = OwnershipNetwork()
    names = [f"n{i}" for i in range(n)]
    for i, name in enumerate(names):
        k = draw(st.integers(min_value=0, max_value=min(3, i)))
        parents = draw(
            st.lists(
                st.sampled_from(names[:i]) if i else st.nothing(),
                min_size=k,
                max_size=k,
                unique=True,
            )
        ) if i else []
        network.add_context(name, parents=parents)
    return network, names


def as_networkx(network: OwnershipNetwork) -> nx.DiGraph:
    graph = nx.DiGraph()
    graph.add_nodes_from(network.contexts())
    graph.add_edges_from(network.edges())
    return graph


# ----------------------------------------------------------------------
# Ownership network vs networkx oracle
# ----------------------------------------------------------------------
@given(ownership_dags())
@settings(max_examples=60, deadline=None)
def test_descendants_match_networkx(data):
    network, names = data
    oracle = as_networkx(network)
    for name in names:
        expected = set(nx.descendants(oracle, name)) | {name}
        assert set(network.descendants(name)) == expected


@given(ownership_dags())
@settings(max_examples=60, deadline=None)
def test_ancestors_match_networkx(data):
    network, names = data
    oracle = as_networkx(network)
    for name in names:
        expected = set(nx.ancestors(oracle, name)) | {name}
        assert set(network.ancestors(name)) == expected


@given(ownership_dags())
@settings(max_examples=60, deadline=None)
def test_network_always_acyclic(data):
    network, _names = data
    assert network.is_acyclic()
    assert nx.is_directed_acyclic_graph(as_networkx(network))


@given(ownership_dags())
@settings(max_examples=40, deadline=None)
def test_dominator_dominates_share_group(data):
    """dom(C) is an ancestor-or-self of C and of every sharer of C."""
    network, names = data
    for name in names:
        share = network.share(name)
        dom = network.dominator(name)
        group = share | {name}
        for member in group:
            assert dom in network.ancestors(member), (
                f"dominator {dom} of {name} does not dominate {member}"
            )


@given(ownership_dags())
@settings(max_examples=40, deadline=None)
def test_share_is_symmetric_for_incomparable_pairs(data):
    """Clause 2 symmetry: incomparable sharers list each other."""
    network, names = data
    for a in names:
        for b in network.share(a):
            a_desc = network.descendants(a)
            b_desc = network.descendants(b)
            if a not in b_desc and b not in a_desc:
                assert a in network.share(b) or b in network.ancestors(a)


@given(ownership_dags())
@settings(max_examples=40, deadline=None)
def test_conflicting_targets_share_a_dominator_chain(data):
    """If two contexts' descendant sets intersect, one dominator
    dominates both targets — the protocol's deadlock-freedom premise."""
    network, names = data
    for a in names:
        for b in names:
            if a >= b:
                continue
            if network.descendants(a).isdisjoint(network.descendants(b)):
                continue
            dom_a = network.dominator(a)
            dom_b = network.dominator(b)
            anc_a = network.ancestors(a)
            anc_b = network.ancestors(b)
            assert (
                dom_a in anc_b
                or dom_b in anc_a
                or dom_a == dom_b
                or dom_a in network.ancestors(dom_b)
                or dom_b in network.ancestors(dom_a)
            ), f"{a}/{b}: dominators {dom_a}/{dom_b} unrelated"


@given(ownership_dags())
@settings(max_examples=40, deadline=None)
def test_find_path_is_a_real_path(data):
    network, names = data
    for src in names:
        for dst in network.descendants(src):
            path = network.find_path(src, dst)
            assert path[0] == src and path[-1] == dst
            for parent, child in zip(path, path[1:]):
                assert child in network.children(parent)


@given(ownership_dags(), st.data())
@settings(max_examples=40, deadline=None)
def test_incremental_caches_match_full_recompute(data, extra):
    """share/dominator caches patched by leaf adds equal a full recompute."""
    network, names = data
    # Warm every cache.
    for name in names:
        network.dominator(name)
    n_adds = extra.draw(st.integers(min_value=1, max_value=5))
    for i in range(n_adds):
        k = extra.draw(st.integers(min_value=0, max_value=min(3, len(names))))
        parents = extra.draw(
            st.lists(st.sampled_from(names), min_size=k, max_size=k, unique=True)
        ) if names else []
        leaf = f"leaf{i}"
        network.add_context(leaf, parents=parents)
        names.append(leaf)
    # Cached (incrementally patched) vs full-scan recomputation.
    # Dominators first: computing them may create virtual joins (a graph
    # mutation that moves other dominators), so repeat until a whole
    # pass adds none; share sets must be captured on the final graph.
    size = -1
    while size != len(network):
        size = len(network)
        cached_dom = {name: network.dominator(name) for name in names}
    cached_share = {name: set(network.share(name)) for name in names}
    network._invalidate()
    for name in names:
        fresh_share = set(network.share(name))
        assert cached_share[name] == fresh_share, name
        fresh_dom = network.dominator(name)
        if network.is_virtual(fresh_dom) and network.is_virtual(cached_dom[name]):
            continue  # virtual joins may differ in identity, not role
        assert cached_dom[name] == fresh_dom, name


# ----------------------------------------------------------------------
# Compact and full nodes vs a brute-force model
# ----------------------------------------------------------------------
class _ModelDag:
    """``cid -> set of direct owners``; every query derived from scratch."""

    def __init__(self):
        self.owners = {}

    def graph(self) -> nx.DiGraph:
        graph = nx.DiGraph()
        graph.add_nodes_from(self.owners)
        graph.add_edges_from((p, c) for c, ps in self.owners.items() for p in ps)
        return graph

    def remove(self, cid):
        del self.owners[cid]
        for ps in self.owners.values():
            ps.discard(cid)

    def share(self, graph, cid):
        """The two-clause definition of §3, over *every* context."""
        mine = nx.descendants(graph, cid) | {cid}
        above = nx.ancestors(graph, cid)
        sharing = set()
        for other in self.owners:
            if other in mine:
                continue
            theirs = nx.descendants(graph, other) | {other}
            if set(graph.successors(other)) & (mine - {cid}):
                sharing.add(other)
            elif other not in above and mine & theirs:
                sharing.add(other)
        return sharing


def _assert_matches_model(network: OwnershipNetwork, model: _ModelDag) -> None:
    # Dominators first: computing one may add a virtual join, which the
    # model adopts (it is part of the graph from then on) and which may
    # move other dominators, so repeat until a whole pass adds none.
    while True:
        doms = {cid: network.dominator(cid) for cid in sorted(model.owners)}
        joins = [cid for cid in network.contexts() if cid not in model.owners]
        if not joins:
            break
        assert all(network.is_virtual(cid) for cid in joins)
        model.owners.update((cid, set()) for cid in joins)
        for cid in joins:
            for child in network.children(cid):
                model.owners[child].add(cid)
    graph = model.graph()
    names = sorted(model.owners)

    assert sorted(network.contexts()) == names
    assert len(network) == len(names)
    assert "never-added" not in network
    assert sorted(network.roots()) == [c for c in names if not model.owners[c]]
    edges = network.edges()
    assert len(edges) == len(set(edges))
    assert set(edges) == set(graph.edges)
    assert network.snapshot() == {c: sorted(graph.successors(c)) for c in names}
    assert network.is_acyclic()
    for cid in names:
        assert cid in network
        desc = set(nx.descendants(graph, cid)) | {cid}
        anc = set(nx.ancestors(graph, cid)) | {cid}
        assert network.parents(cid) == model.owners[cid]
        assert network.children(cid) == set(graph.successors(cid))
        assert set(network.descendants(cid)) == desc
        assert network.ancestors(cid) == anc
        share = model.share(graph, cid)
        assert network.share(cid) == share, cid
        for other in names:
            assert network.owns(cid, other) == (other in desc)
            if other in desc:
                path = network.find_path(cid, other)
                assert len(path) == nx.shortest_path_length(graph, cid, other) + 1
                assert path[0] == cid and path[-1] == other
                assert all(graph.has_edge(a, b) for a, b in zip(path, path[1:]))
            else:
                with pytest.raises(ValueError):
                    network.find_path(cid, other)
        # dom(C) = lub(share(C) ∪ {C}); a virtual join stands in when
        # the common owners have no single least element.
        group = share | {cid}
        common = set.intersection(
            *({m} | set(nx.ancestors(graph, m)) for m in group)
        )
        least = [
            c for c in common if not (set(nx.descendants(graph, c)) & common)
        ]
        if len(least) == 1:
            assert doms[cid] == least[0], cid
        else:
            assert network.is_virtual(doms[cid]) and doms[cid] in common, cid
        if not graph.out_degree(cid) and len(model.owners[cid]) <= 1:
            assert doms[cid] == cid and not share
    # Patched caches vs a cold recompute (the oracle of
    # test_incremental_caches_match_full_recompute).
    network._invalidate()
    for cid in names:
        assert network.share(cid) == model.share(graph, cid), cid
        fresh = network.dominator(cid)
        if not (network.is_virtual(fresh) and network.is_virtual(doms[cid])):
            assert fresh == doms[cid], cid


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_mutation_sequences_match_brute_force_model(data):
    """Random add/link/unlink/remove sequences, compact leaves included.

    Single-owner adds stay compact, gain children or second owners
    (promotion), lose their owner, and are removed; after a random
    subset of the steps — so both warm and cold caches are hit — every
    public query must equal the model's from-scratch answer.
    """
    network, model = OwnershipNetwork(), _ModelDag()
    counter = 0

    def fresh():
        nonlocal counter
        counter += 1
        return f"c{counter}"

    def pick(**kwargs):
        return data.draw(st.sampled_from(sorted(model.owners)), **kwargs)

    for _ in range(data.draw(st.integers(min_value=1, max_value=14))):
        op = data.draw(st.sampled_from(
            ["add_context", "add_leaves", "add_edge", "remove_edge", "remove_context"]
        ))
        real = [c for c in sorted(model.owners) if not network.is_virtual(c)]
        if op == "add_context" or not real:
            k = data.draw(st.integers(min_value=0, max_value=min(3, len(real))))
            owners = data.draw(
                st.lists(st.sampled_from(real), min_size=k, max_size=k, unique=True)
            ) if k else []
            cid = fresh()
            network.add_context(cid, parents=owners)
            model.owners[cid] = set(owners)
        elif op == "add_leaves":
            owners = data.draw(st.lists(
                st.one_of(st.none(), st.sampled_from(real)), min_size=1, max_size=4
            ))
            cids = [fresh() for _ in owners]
            network.add_leaves(cids, owners)
            for cid, owner in zip(cids, owners):
                model.owners[cid] = set() if owner is None else {owner}
        elif op == "add_edge":
            owner, child = pick(), pick()
            graph = model.graph()
            if owner == child or owner in nx.descendants(graph, child):
                with pytest.raises(OwnershipCycleError):
                    network.add_edge(owner, child)
            else:
                network.add_edge(owner, child)
                model.owners[child].add(owner)
        elif op == "remove_edge":
            edges = sorted(model.graph().edges)
            owner, child = (
                data.draw(st.sampled_from(edges)) if edges else (pick(), pick())
            )
            network.remove_edge(owner, child)
            model.owners[child].discard(owner)
        else:
            cid = pick()
            network.remove_context(cid)
            model.remove(cid)
        if data.draw(st.booleans()):
            _assert_matches_model(network, model)
    _assert_matches_model(network, model)


def test_add_leaves_rejects_a_bad_batch_untouched():
    network = OwnershipNetwork()
    network.add_context("root")
    network.add_leaves(["a", "b"], ["root", None])
    before = (network.snapshot(), network.epoch)
    for cids, owners, error in (
        (["c", "d", "c"], ["root"] * 3, ValueError),       # repeated in batch
        (["c", "a"], ["root", "root"], ValueError),          # already exists
        (["c", "d"], ["root", "nope"], UnknownContextError),  # unknown owner
        (["c", "d"], ["root"], ValueError),                  # misaligned
    ):
        with pytest.raises(error):
            network.add_leaves(cids, owners)
        assert (network.snapshot(), network.epoch) == before


@given(ownership_dags())
@settings(max_examples=30, deadline=None)
def test_cycle_rejection_property(data):
    """Adding any ancestor as a child of its descendant is rejected."""
    network, names = data
    for name in names:
        ancestors = network.ancestors(name) - {name}
        for ancestor in list(ancestors)[:3]:
            with pytest.raises(OwnershipCycleError):
                network.add_edge(name, ancestor)


# ----------------------------------------------------------------------
# Lock admission invariants under arbitrary schedules
# ----------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(st.sampled_from(["req_ro", "req_ex", "rel"]),
                  st.integers(min_value=0, max_value=7)),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=100, deadline=None)
def test_lock_safety_invariants(script):
    """Never RO+EX or EX+EX concurrently; FIFO admission; no lost grants."""
    sim = Simulator()
    lock = ContextLock(sim, "c")
    events = {}
    granted = set()

    def get_event(eid, mode):
        if eid not in events:
            events[eid] = Event(eid, CallSpec("c", "m"), mode, "cl", 0.0)
        return events[eid]

    for op, eid in script:
        if op == "rel":
            if eid in events:
                lock.release(events[eid])
        else:
            mode = AccessMode.RO if op == "req_ro" else AccessMode.EX
            if eid in events:
                continue  # one request per event in this model
            grant, _owned = lock.request(get_event(eid, mode))
            grant.add_callback(lambda _s, e=eid: granted.add(e))
        sim.run()
        holders = lock.activated
        ex_holders = [e for e, m in holders.items() if m is AccessMode.EX]
        assert len(ex_holders) <= 1
        if ex_holders:
            assert len(holders) == 1
    # Drain: after releasing everything (twice, covering reservations
    # that got granted by the first pass), nothing is held or queued.
    for event in events.values():
        lock.release(event)
        sim.run()
    for event in events.values():
        lock.release(event)
        sim.run()
    assert lock.queue_length == 0
    assert not lock.is_held()
    # Every grant that fired belongs to a known event.
    assert granted <= set(events)


# ----------------------------------------------------------------------
# History checker properties
# ----------------------------------------------------------------------
@given(
    st.lists(st.tuples(st.integers(0, 3), st.booleans()), min_size=1, max_size=30)
)
@settings(max_examples=80, deadline=None)
def test_serial_histories_always_pass(script):
    """Any genuinely serial execution passes the checker."""
    recorder = HistoryRecorder()
    versions = {}
    now = 0.0
    for eid, (ctx_index, is_read) in enumerate(script):
        cid = f"ctx{ctx_index}"
        start = now
        now += 1.0
        if is_read:
            recorder.commit(eid, "", start, now,
                            reads={cid: versions.get(cid, 0)}, writes={})
        else:
            versions[cid] = versions.get(cid, 0) + 1
            recorder.commit(eid, "", start, now,
                            reads={}, writes={cid: versions[cid]})
    recorder.check()
    order = recorder.serial_order()
    assert order is not None


@given(st.lists(st.floats(min_value=0, max_value=1000), min_size=1, max_size=200),
       st.floats(min_value=0, max_value=100))
@settings(max_examples=100, deadline=None)
def test_percentile_bounds(values, pct):
    result = percentile(values, pct)
    assert min(values) <= result <= max(values)
