"""Unit tests for the static analysis and contextclass machinery."""

import copy
import pickle
from collections import Counter

import pytest

from repro.core.analysis import StaticAnalysis
from repro.core.context import (
    ContextClass,
    ContextRef,
    Ref,
    RefSet,
    cost,
    is_readonly,
    method_cost,
    readonly,
)
from repro.core.errors import AeonError, StaticAnalysisError
from repro.core.events import CallSpec
from repro.exec import execute_cell
from repro.harness.scenarios import expand, prepare_scenario


# ----------------------------------------------------------------------
# StaticAnalysis
# ----------------------------------------------------------------------
def test_acyclic_constraints_pass():
    analysis = StaticAnalysis()
    analysis.register("Building", {"Room"})
    analysis.register("Room", {"Player", "Item"})
    analysis.register("Player", {"Item"})
    analysis.register("Item", set())
    analysis.check()  # no exception


def test_cyclic_constraints_rejected():
    analysis = StaticAnalysis()
    analysis.register("A", {"B"})
    analysis.register("B", {"A"})
    with pytest.raises(StaticAnalysisError):
        analysis.check()


def test_reflexive_constraint_allowed():
    analysis = StaticAnalysis()
    analysis.register("ListNode", {"ListNode"})
    analysis.register("Tree", {"Tree", "ListNode"})
    analysis.check()  # self-loops are not cycles


def test_longer_cycle_detected():
    analysis = StaticAnalysis()
    analysis.register("A", {"B"})
    analysis.register("B", {"C"})
    analysis.register("C", {"A"})
    with pytest.raises(StaticAnalysisError) as excinfo:
        analysis.check()
    message = str(excinfo.value)
    assert "A" in message and "B" in message and "C" in message


def test_check_memoized_until_new_registration():
    analysis = StaticAnalysis()
    analysis.register("A", {"B"})
    analysis.check()
    analysis.check()  # cached
    analysis.register("B", {"A"})
    with pytest.raises(StaticAnalysisError):
        analysis.check()


# ----------------------------------------------------------------------
# Decorators
# ----------------------------------------------------------------------
def test_readonly_marker():
    @readonly
    def probe(self):
        return 1

    assert is_readonly(probe)
    assert not is_readonly(lambda: None)


def test_cost_marker_and_default():
    @cost(2.5)
    def heavy(self):
        pass

    def plain(self):
        pass

    assert method_cost(heavy, 0.1) == 2.5
    assert method_cost(plain, 0.1) == 0.1


# ----------------------------------------------------------------------
# ContextRef
# ----------------------------------------------------------------------
def test_ref_builds_callspecs():
    ref = ContextRef("player-1", "Player")
    spec = ref.get_gold(50, fast=True)
    assert isinstance(spec, CallSpec)
    assert spec.target == "player-1"
    assert spec.method == "get_gold"
    assert spec.args == (50,)
    assert spec.kwargs == {"fast": True}
    # The first lookup installed a builder on the class: later lookups
    # are plain method lookups, not a failed lookup caught by __getattr__.
    assert callable(vars(ContextRef)["get_gold"])
    assert ref.get_gold(7).args == (7,)


def test_ref_explicit_call():
    ref = ContextRef("x", "T")
    spec = ref.call("dynamic_method", 1)
    assert spec.method == "dynamic_method"


def test_ref_equality_and_hash():
    a = ContextRef("same", "T")
    b = ContextRef("same", "U")
    assert a == b
    assert hash(a) == hash(b)
    assert a != ContextRef("other", "T")


def test_ref_private_attribute_raises():
    ref = ContextRef("x", "T")
    with pytest.raises(AttributeError):
        _ = ref._secret
    assert "_secret" not in vars(ContextRef)


def test_refs_of_different_types_build_their_own_specs():
    player = ContextRef("player-7", "Player")
    room = ContextRef("room-2", "Room")
    assert player.shared_name(1).target == "player-7"
    assert room.shared_name(2).target == "room-2"
    assert player.shared_name().method == room.shared_name().method == "shared_name"


def test_ref_copy_and_pickle_round_trip():
    ref = ContextRef("x", "T")
    _ = ref.some_method  # a builder on the class must not leak into state
    assert copy.copy(ref) == ref
    restored = pickle.loads(pickle.dumps(ref))
    assert restored == ref
    assert (restored.cid, restored.type_name) == ("x", "T")


def test_ref_has_no_instance_dict():
    ref = ContextRef("x", "T")
    assert not hasattr(ref, "__dict__")
    with pytest.raises(AttributeError):
        ref.extra = 1


def test_game_cell_reaches_ref_getattr_once_per_method(monkeypatch):
    """A failed attribute lookup (an AttributeError built and caught) per
    nested call was the event path's largest avoidable cost: on a real
    run ``__getattr__`` may fire once per method name, never per op."""
    # Drop the builders earlier tests installed, so this run installs its own.
    for name, value in list(vars(ContextRef).items()):
        if getattr(value, "__qualname__", "").startswith("ContextRef.__getattr__."):
            monkeypatch.delattr(ContextRef, name)
    fired = Counter()
    original = ContextRef.__getattr__

    def counting(self, name):
        fired[name] += 1
        return original(self, name)

    monkeypatch.setattr(ContextRef, "__getattr__", counting)
    spec = prepare_scenario("fig5a", scale="quick", seed=0)
    (cell,) = [cell for cell in expand(spec) if cell.key == ("aeon", 2)]
    result = execute_cell(cell)
    public = {name: n for name, n in fired.items() if not name.startswith("_")}
    assert public, "the game built no nested call through ref.method"
    assert max(public.values()) == 1, public
    assert result.value > 0  # throughput: the run did execute events


# ----------------------------------------------------------------------
# Contextclass declarations (detached instances)
# ----------------------------------------------------------------------
class Leaf(ContextClass):
    def __init__(self):
        pass


class Holder(ContextClass):
    single = Ref(Leaf)
    many = RefSet("Leaf")

    def __init__(self):
        pass


def test_declared_ref_types_collected():
    assert Holder.declared_ref_types() == {"Leaf"}
    assert Leaf.declared_ref_types() == set()


def test_declared_ref_types_inherited():
    class Sub(Holder):
        extra = Ref("Other")

    assert Sub.declared_ref_types() == {"Leaf", "Other"}


def test_ref_type_validation():
    with pytest.raises(TypeError):
        Ref(42)


def test_detached_instance_ref_assignment():
    holder = Holder()
    assert holder.single is None
    holder.single = ContextRef("leaf-1", "Leaf")
    assert holder.single.cid == "leaf-1"
    holder.single = None
    assert holder.single is None


def test_detached_ref_requires_contextref():
    holder = Holder()
    with pytest.raises(TypeError):
        holder.single = "not a ref"


def test_refset_view_add_discard_iter():
    holder = Holder()
    a = ContextRef("leaf-a", "Leaf")
    b = ContextRef("leaf-b", "Leaf")
    holder.many.add(a)
    holder.many.add(b)
    holder.many.add(a)  # idempotent
    assert len(holder.many) == 2
    assert list(holder.many) == [a, b]  # sorted by cid
    assert a in holder.many
    holder.many.discard(a)
    assert a not in holder.many
    holder.many.discard(a)  # idempotent


def test_refset_cannot_be_assigned():
    holder = Holder()
    with pytest.raises(AeonError):
        holder.many = set()


def test_refset_add_requires_ref():
    holder = Holder()
    with pytest.raises(TypeError):
        holder.many.add("nope")


def test_state_snapshot_contains_fields_and_refs():
    holder = Holder()
    holder.single = ContextRef("leaf-9", "Leaf")
    holder.many.add(ContextRef("leaf-7", "Leaf"))
    holder.plain_value = 42
    snap = holder.state_snapshot()
    assert snap["plain_value"] == 42
    assert snap["__refs__"] == {"single": "leaf-9"}
    assert snap["__refsets__"] == {"many": ["leaf-7"]}
