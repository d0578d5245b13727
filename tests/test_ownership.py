"""Unit tests for the ownership network: DAG, share, dominators, paths.

The share/dominator cases mirror the paper's running examples: the game
graph of Fig. 3 (Kings Room / Players / Treasure / Sword) and the TPC-C
District/Customer/Order sharing of §6.1.2.
"""

import pytest

from repro.core.errors import OwnershipCycleError, UnknownContextError
from repro.core.ownership import OwnershipNetwork, VIRTUAL_PREFIX


def build_game_graph():
    """Fig. 3's castle: returns the populated network."""
    g = OwnershipNetwork()
    g.add_context("castle")
    g.add_context("kings-room", parents=["castle"])
    g.add_context("armory", parents=["castle"])
    g.add_context("p1", parents=["kings-room"])
    g.add_context("p2", parents=["kings-room"])
    g.add_context("p3", parents=["armory"])
    g.add_context("treasure", parents=["kings-room", "p1", "p2"])
    g.add_context("weapons-vault", parents=["armory"])
    g.add_context("sword", parents=["weapons-vault"])
    g.add_context("horse", parents=["p1", "p2"])
    return g


# ----------------------------------------------------------------------
# Structure
# ----------------------------------------------------------------------
def test_add_context_duplicate_rejected():
    g = OwnershipNetwork()
    g.add_context("a")
    with pytest.raises(ValueError):
        g.add_context("a")


def test_add_context_unknown_parent_rejected():
    g = OwnershipNetwork()
    with pytest.raises(UnknownContextError):
        g.add_context("a", parents=["ghost"])


def test_parents_children_roundtrip():
    g = OwnershipNetwork()
    g.add_context("a")
    g.add_context("b", parents=["a"])
    assert g.parents("b") == {"a"}
    assert g.children("a") == {"b"}
    assert g.roots() == ["a"]


def test_edge_cycle_rejected():
    g = OwnershipNetwork()
    g.add_context("a")
    g.add_context("b", parents=["a"])
    with pytest.raises(OwnershipCycleError):
        g.add_edge("b", "a")
    with pytest.raises(OwnershipCycleError):
        g.add_edge("a", "a")


def test_remove_edge_and_context():
    g = OwnershipNetwork()
    g.add_context("a")
    g.add_context("b", parents=["a"])
    g.remove_edge("a", "b")
    assert g.parents("b") == set()
    g.remove_context("b")
    assert "b" not in g
    assert len(g) == 1


def test_descendants_include_self():
    g = build_game_graph()
    assert "castle" in g.descendants("castle")
    assert g.descendants("sword") == {"sword"}
    assert {"p1", "treasure", "horse"} <= g.descendants("kings-room")


def test_ancestors_include_self():
    g = build_game_graph()
    assert g.ancestors("treasure") >= {"treasure", "p1", "p2", "kings-room", "castle"}


def test_owns_transitive():
    g = build_game_graph()
    assert g.owns("castle", "sword")
    assert g.owns("p1", "horse")
    assert not g.owns("armory", "treasure")


def test_is_acyclic():
    assert build_game_graph().is_acyclic()


def test_edges_and_snapshot():
    g = OwnershipNetwork()
    g.add_context("a")
    g.add_context("b", parents=["a"])
    assert ("a", "b") in g.edges()
    assert g.snapshot() == {"a": ["b"], "b": []}


def _assert_childless_order(g):
    """Every query on the childless two-owner ``o1`` built below."""
    assert g.children("o1") == set()
    assert g.parents("o1") == {"c1", "d1"}
    assert g.share("o1") == set()
    assert g.dominator("o1") == "o1"
    assert g.dominator("c1") == "d1"
    assert g.snapshot() == {"wh": ["d1"], "d1": ["c1", "o1"], "c1": ["o1"], "o1": []}
    assert sorted(g.edges()) == [("c1", "o1"), ("d1", "c1"), ("d1", "o1"), ("wh", "d1")]
    assert g.is_acyclic()


def test_childless_two_owner_context():
    """A TPC-C Order: a full node from the start that keeps no child set.
    Every query answers for it as for any childless context, and from
    the childless state it gains a child through each edge-adding path
    (a batch of leaves, an edge) and loses it again by removal."""
    g = OwnershipNetwork()
    g.add_context("wh")
    g.add_context("d1", parents=["wh"])
    g.add_context("c1", parents=["d1"])
    g.add_context("o1", parents=["c1", "d1"])
    # A two-owner add reads no child set (its ownership checks walk up);
    # reading one fills them all (``_kids``), so the leaves added under
    # the multi-owned context below take the mirrored path.
    assert not g._mirrored
    assert g.children("d1") == {"c1", "o1"}
    assert g._mirrored
    _assert_childless_order(g)
    g.add_leaves(["line-1", "line-2"], ["o1", "o1"])
    assert g.children("o1") == {"line-1", "line-2"}
    assert g.descendants("o1") == {"o1", "line-1", "line-2"}
    assert g.snapshot()["o1"] == ["line-1", "line-2"]
    g.remove_context("line-1")
    g.remove_context("line-2")
    _assert_childless_order(g)

    g.add_context("note")
    g.add_edge("o1", "note")
    assert g.children("o1") == {"note"}
    assert g.descendants("o1") == {"o1", "note"}
    assert g.dominator("o1") == "o1"
    assert ("o1", "note") in g.edges() and g.is_acyclic()
    g.remove_context("note")
    _assert_childless_order(g)

    g.remove_context("o1")
    assert g.snapshot() == {"wh": ["d1"], "d1": ["c1"], "c1": []}
    assert sorted(g.edges()) == [("d1", "c1"), ("wh", "d1")]
    assert g.dominator("c1") == "c1"
    assert g.is_acyclic()


# ----------------------------------------------------------------------
# share (the paper's two clauses)
# ----------------------------------------------------------------------
def test_share_of_sharing_players_includes_owner_and_peer():
    g = build_game_graph()
    # Clause 2: p2 shares treasure/horse with p1; clause 1: the Kings
    # Room shares the treasure child with p1.
    assert g.share("p1") >= {"p2", "kings-room"}


def test_share_of_unshared_leaf_is_empty():
    g = build_game_graph()
    assert g.share("sword") == set()


def test_share_in_plain_tree_is_empty():
    g = OwnershipNetwork()
    g.add_context("root")
    g.add_context("mid", parents=["root"])
    g.add_context("leaf", parents=["mid"])
    for cid in ("root", "mid", "leaf"):
        assert g.share(cid) == set()


# ----------------------------------------------------------------------
# Dominators (Fig. 3's annotations)
# ----------------------------------------------------------------------
def test_dominator_of_sharing_players_is_room():
    g = build_game_graph()
    assert g.dominator("p1") == "kings-room"
    assert g.dominator("p2") == "kings-room"


def test_dominator_of_unshared_contexts_is_self():
    g = build_game_graph()
    assert g.dominator("sword") == "sword"
    assert g.dominator("p3") == "armory" or g.dominator("p3") == "p3"
    assert g.dominator("castle") == "castle"
    assert g.dominator("horse") == "horse"


def test_dominator_tree_case_all_self():
    g = OwnershipNetwork()
    g.add_context("root")
    g.add_context("mid", parents=["root"])
    g.add_context("leaf", parents=["mid"])
    assert g.dominator("leaf") == "leaf"
    assert g.dominator("mid") == "mid"


def test_dominator_tpcc_customer_is_district():
    g = OwnershipNetwork()
    g.add_context("wh")
    g.add_context("d1", parents=["wh"])
    g.add_context("c1", parents=["d1"])
    g.add_context("c2", parents=["d1"])
    g.add_context("o1", parents=["c1", "d1"])  # multi-ownership
    assert g.dominator("c1") == "d1"
    assert g.dominator("d1") == "d1"
    assert g.dominator("wh") == "wh"
    # Customers without shared orders stay their own dominator.
    assert g.dominator("c2") == "c2"


def test_dominator_tpcc_single_ownership_customer_is_self():
    g = OwnershipNetwork()
    g.add_context("wh")
    g.add_context("d1", parents=["wh"])
    g.add_context("c1", parents=["d1"])
    g.add_context("o1", parents=["c1"])
    assert g.dominator("c1") == "c1"


def test_dominator_virtual_root_for_disjoint_maxima():
    g = OwnershipNetwork()
    g.add_context("a")
    g.add_context("b")
    g.add_context("x", parents=["a", "b"])
    dom = g.dominator("a")
    assert g.is_virtual(dom)
    assert dom.startswith(VIRTUAL_PREFIX)
    assert g.dominator("b") == dom
    assert g.children(dom) >= {"a", "b"}
    assert g.is_acyclic()


def test_dominator_diamond_with_single_join():
    g = OwnershipNetwork()
    g.add_context("root")
    g.add_context("a", parents=["root"])
    g.add_context("b", parents=["root"])
    g.add_context("x", parents=["a", "b"])
    assert g.dominator("a") == "root"
    assert g.dominator("b") == "root"


def test_virtual_root_reused_for_same_maxima():
    g = OwnershipNetwork()
    g.add_context("a")
    g.add_context("b")
    g.add_context("x", parents=["a", "b"])
    first = g.dominator("a")
    g.add_context("y", parents=["a", "b"])
    second = g.dominator("b")
    assert first == second


# ----------------------------------------------------------------------
# Incremental caching under leaf additions (the TPC-C hot path)
# ----------------------------------------------------------------------
def test_leaf_addition_updates_descendants_incrementally():
    g = build_game_graph()
    _ = g.descendants("castle")  # an earlier answer must not go stale
    g.add_context("new-item", parents=["p1"])
    assert "new-item" in g.descendants("castle")
    assert "new-item" in g.descendants("p1")
    assert "new-item" not in g.descendants("armory")


def test_leaf_addition_flips_dominator_of_parents():
    g = OwnershipNetwork()
    g.add_context("wh")
    g.add_context("d", parents=["wh"])
    g.add_context("c", parents=["d"])
    assert g.dominator("c") == "c"  # no sharing yet
    g.add_context("o", parents=["c", "d"])
    assert g.dominator("c") == "d"  # sharing flips the dominator


def test_leaf_additions_match_full_recompute():
    g = OwnershipNetwork()
    g.add_context("wh")
    for d in range(2):
        g.add_context(f"d{d}", parents=["wh"])
        for c in range(3):
            g.add_context(f"c{d}{c}", parents=[f"d{d}"])
    # Interleave queries (forcing caches) with multi-parent leaf adds.
    for d in range(2):
        for c in range(3):
            _ = g.dominator(f"c{d}{c}")
            g.add_context(f"o{d}{c}", parents=[f"c{d}{c}", f"d{d}"])
    fresh = OwnershipNetwork()
    fresh.add_context("wh")
    for d in range(2):
        fresh.add_context(f"d{d}", parents=["wh"])
        for c in range(3):
            fresh.add_context(f"c{d}{c}", parents=[f"d{d}"])
            fresh.add_context(f"o{d}{c}", parents=[f"c{d}{c}", f"d{d}"])
    for cid in fresh.contexts():
        assert g.dominator(cid) == fresh.dominator(cid), cid
        assert g.share(cid) == fresh.share(cid), cid


# ----------------------------------------------------------------------
# find_path
# ----------------------------------------------------------------------
def test_find_path_self():
    g = build_game_graph()
    assert g.find_path("p1", "p1") == ["p1"]


def test_find_path_down_the_dag():
    g = build_game_graph()
    path = g.find_path("castle", "sword")
    assert path[0] == "castle" and path[-1] == "sword"
    for parent, child in zip(path, path[1:]):
        assert child in g.children(parent)


def test_find_path_not_descendant_raises():
    g = build_game_graph()
    with pytest.raises(ValueError):
        g.find_path("armory", "treasure")


def test_find_path_unknown_raises():
    g = build_game_graph()
    with pytest.raises(UnknownContextError):
        g.find_path("castle", "ghost")


def test_epoch_bumps_on_mutation():
    g = OwnershipNetwork()
    before = g.epoch
    g.add_context("a")
    assert g.epoch > before
