"""The ownership network: a context DAG completed into a join semi-lattice.

This module implements §3 of the paper:

* contexts form a DAG under the *directly-owned* relation (a context C is
  directly owned by C' if a field of C' references C);
* ``desc(G, C)`` — the descendants of C, **including C itself**;
* ``share(G, C)`` — the two-clause definition from the paper:

  1. contexts C' whose *direct children* intersect the proper
     descendants of C ("contexts which might be an owner of C and
     moreover share a common child with C" — e.g. the Kings Room shares
     the Treasure child with Player1, and a TPC-C District shares Order
     children with its Customers);
  2. contexts C' incomparable with C whose descendant sets intersect
     (e.g. Player2 shares the Treasure with Player1).

* ``dom(G, C) = lub(G, share(G, C) ∪ {C})`` — the context at which every
  event targeting C is sequenced by the execution protocol.

When the least upper bound is not unique (multiple maxima sharing common
descendants) the paper adds "unnamed contexts"; here
:meth:`OwnershipNetwork.dominator` creates a *virtual root* joining the
offending maxima, which completes the DAG into a join semi-lattice.

Caching
-------
Four derived indexes are cached: ancestor sets, ``share``, ``dom`` and
``find_path``'s paths.  Descendant sets are not: ``descendants`` and a
cold ``share`` each walk down once and keep nothing.  Every ownership
test — ``owns``, a leaf addition's sharing update, the lub's minimal
test, both clauses of a cold ``share`` — asks whether one context is
among another's ancestors.  The ancestor index holds a set only for a
context with a child, filled on its first query; a childless context
(an Order, a compact leaf) answers from its owners' entries.

The common dynamic mutation — adding a fresh leaf context (TPC-C
creates an Order context on every NewOrder transaction) — is handled
incrementally: ancestor-index entries and cached paths stay valid (a new
leaf changes no existing context's ancestors and shortens no path), new
sharing pairs are derived from the parents' ancestor sets, and only
dominators whose share set actually changed are invalidated.  Any other
mutation (edges between existing contexts, removals) clears all four.

Compact leaves
--------------
Almost every context in the evaluated applications (players, items,
terminals) is a childless context with at most one owner.  Such a leaf
is stored as one ``cid -> parent`` entry in a single map — no parent,
child or share set of its own.  It shares with nobody and is its own
dominator by construction (see :meth:`OwnershipNetwork.dominator`).  The
first time it gains a child or a second owner it is *promoted* to a full
node; full nodes are never demoted.  Hence every context that has a
child, and every proper ancestor of any context, is a full node.  A
context created with several owners (a TPC-C Order under its Customer
and its District) is a full node from the start.

A full node keeps a child set only while it has a child (a reader takes
a missing one as empty), so a childless full node — every Order — pays
for its parent set alone.  Nor does a fresh multi-owned node get a share
seed: as a compact leaf's, its share is empty, no leaf addition patches
it (it is nobody's ancestor), and :meth:`OwnershipNetwork.share`
computes it if asked.  A *promoted* leaf does get the empty seed
(:meth:`OwnershipNetwork._promote` says why).

Owners' child sets learn their compact leaves only when something reads
child sets.  Every such read (children, downward walks, virtual joins,
acyclicity, edges, snapshots, edge mutations and removals) goes through
one accessor, :meth:`OwnershipNetwork._kids`, whose first call enters
each compact leaf into its owner's set in one pass over the leaf map;
from then on ``add_leaves`` keeps the sets filled.  A full node is in
its owners' sets at all times.  No answer can change: a compact leaf's
only owner is a full node, so the first read adds exactly the edges the
leaf map records, and string-set iteration order already varies with
``PYTHONHASHSEED``, so nothing byte-pinned can depend on the order in
which a set was filled.  A run that only asks for dominators (the
massive tier) never reads a child set, so a leaf there stays one entry,
and a bulk leaf none (below).

Bulk populations
----------------
A bulk-registered population (:meth:`OwnershipNetwork.add_population`)
is one :class:`Population` record: a prefix, a count and an owner
cycle.  Leaf ``i`` is ``f"{prefix}{i}"``, owned by the cycle's slot
``i % len(cycle)``, and a cid is a member when it is the prefix followed
by the canonical ASCII decimal of an ``i`` below the count.  A member
is *untouched* while it has no map entry, and it answers every query
from the record (a map miss asks :meth:`OwnershipNetwork.member`) until
a mutation names it: an edge, a promotion or a removal.  That mutation
*touches* it first, entering it in the compact-leaf map, and from then
on it answers from the maps like any other context.  Nothing else
touches a member: the runtime's first ``instance_of`` of a leaf reads
the record and writes nothing here, so a leaf that events only run on
stays untouched for the whole run.  Enumerations (``contexts``,
``roots``, ``snapshot``, ``len`` and the first child-set read) list the
untouched members too.  A member removed after its touch is remembered
in a set, so the record does not bring it back (its cid may be
registered again, as any unknown one).  Otherwise populations share no
cid with each other or with a context in the maps.
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from typing import (
    Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple,
)

from .errors import FencedError, OwnershipCycleError, UnknownContextError

__all__ = ["FencingTable", "OwnershipNetwork", "Population", "VIRTUAL_PREFIX"]

VIRTUAL_PREFIX = "~vroot:"
"""Prefix of automatically created virtual (unnamed) join contexts."""


class Population:
    """A bulk-registered population of compact leaves, as one record.

    Leaf ``i`` is ``f"{prefix}{i}"`` for ``0 <= i < count``, owned by
    ``parents[i % len(parents)]``: ``parents`` is an owner cycle
    (``None`` in a slot: no owner; ``parents`` itself ``None``: no leaf
    has one).  A cycle as long as ``count`` aligns one owner with each
    leaf.  ``hosts`` is opaque to the ownership network: the runtime's
    server names, used round-robin the same way.  ``untouched`` counts
    the members without a map entry of their own (module docstring).
    """

    __slots__ = ("prefix", "count", "hosts", "parents", "untouched", "width")

    def __init__(
        self,
        prefix: str,
        count: int,
        hosts: Tuple[str, ...] = (),
        parents: Optional[Tuple[Optional[str], ...]] = None,
    ) -> None:
        if count < 0:
            raise ValueError(f"a population needs a count >= 0, got {count}")
        if parents is not None:
            if not parents:
                raise ValueError("an owner cycle needs at least one slot")
            if len(parents) > count:
                # The tail would be promoted without a child.
                raise ValueError(
                    f"an owner cycle of {len(parents)} slots is longer than "
                    f"its {count} contexts"
                )
        self.prefix = prefix
        self.count = count
        self.hosts = hosts
        self.parents = parents
        self.untouched = count
        # Digits of the largest index: a longer suffix is no member.
        self.width = len(str(count))

    def index(self, cid: str) -> int:
        """``i`` if ``cid`` is leaf ``i`` of this population, else -1."""
        prefix = self.prefix
        if cid.startswith(prefix):
            digits = cid[len(prefix):]
            if (
                digits.isdecimal() and digits.isascii() and len(digits) <= self.width
                and (digits[0] != "0" or len(digits) == 1)
            ):
                i = int(digits)
                if i < self.count:
                    return i
        return -1

    def owner(self, i: int) -> Optional[str]:
        """The only owner of leaf ``i``, or ``None``."""
        parents = self.parents
        return None if parents is None else parents[i % len(parents)]


class FencingTable:
    """Per-subtree fencing epochs: the ``fencing`` knob of crash recovery.

    Each checkpoint root carries a monotonically increasing *fencing
    epoch*.  When the failure detector **declares** a server dead the
    recovery manager bumps the epoch of every subtree hosted there
    (:meth:`fence`) — from that instant, writes anywhere in the fenced
    subtree raise :class:`FencedError` until a new holder is granted the
    fresh epoch (:meth:`grant`).  The table never consults cluster
    ground truth: it is driven purely by declarations and grants, so a
    live-but-partitioned owner is fenced exactly like a dead one.

    A separate *manager epoch* fences the eManager itself: a recovered
    successor bumps it, and the predecessor's migration-WAL appends are
    rejected as stale (see ``MigrationCoordinator._log``).

    The eManager persists each epoch as its own ``fencing/{root}`` (and
    ``fencing/manager``) write, so a successor re-adopts them
    (:meth:`adopt_epoch`) after a failover.
    """

    def __init__(self) -> None:
        self._epochs: Dict[str, int] = {}
        self._fenced: Set[str] = set()
        self._holders: Dict[str, Optional[str]] = {}
        self._root_of: Dict[str, str] = {}
        self.manager_epoch = 0
        #: Writes rejected by :meth:`check_write` (stale-owner attempts).
        self.rejected = 0

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def track(self, root: str, members: Iterable[str], holder: Optional[str]) -> None:
        """Register ``root`` (and its member cids) as a fenceable subtree."""
        self._epochs.setdefault(root, 0)
        self._holders.setdefault(root, holder)
        for member in members:
            self._root_of[member] = root

    def roots(self) -> List[str]:
        """All tracked subtree roots, sorted."""
        return sorted(self._epochs)

    # ------------------------------------------------------------------
    # Epoch protocol
    # ------------------------------------------------------------------
    def epoch(self, root: str) -> int:
        """Current fencing epoch of ``root`` (0 if never fenced)."""
        return self._epochs.get(root, 0)

    def holder(self, root: str) -> Optional[str]:
        """Server currently granted ``root`` (None while fenced)."""
        return self._holders.get(root)

    def is_fenced(self, root: str) -> bool:
        """Whether ``root`` is fenced (declared, handoff still pending)."""
        return root in self._fenced

    def fence(self, root: str) -> int:
        """Bump ``root``'s epoch and reject writes until a new grant.

        Idempotent while already fenced (a lease re-declaration must not
        bump again, or the eventual grant would race the re-declaration).
        Returns the new epoch.
        """
        if root not in self._fenced:
            self._epochs[root] = self._epochs.get(root, 0) + 1
            self._fenced.add(root)
            self._holders[root] = None
        return self._epochs[root]

    def grant(self, root: str, holder: str) -> int:
        """Hand ``root`` to ``holder`` at the current epoch; lifts the fence."""
        self._fenced.discard(root)
        self._holders[root] = holder
        return self._epochs.get(root, 0)

    def check_write(self, cid: str) -> None:
        """Raise :class:`FencedError` if ``cid`` sits in a fenced subtree.

        O(1); called on the write path only when fencing is enabled.
        """
        root = self._root_of.get(cid)
        if root is not None and root in self._fenced:
            self.rejected += 1
            raise FencedError(
                f"write to {cid!r} rejected: subtree {root!r} is fenced at "
                f"epoch {self._epochs.get(root, 0)} pending handoff"
            )

    def adopt_epoch(self, root: str, epoch: int) -> None:
        """Adopt a durably persisted epoch for ``root``.

        Failover path: a successor rebuilding the table from cloud
        storage takes the stored epoch when it is ahead of the local one
        — epochs only ever move forward.
        """
        if int(epoch) > self._epochs.get(root, 0):
            self._epochs[root] = int(epoch)

    def bump_manager(self) -> int:
        """Bump the eManager fencing epoch (successor takeover)."""
        self.manager_epoch += 1
        return self.manager_epoch


class OwnershipNetwork:
    """A mutable DAG of context ids with dominator computation."""

    def __init__(self) -> None:
        # Full nodes: direct owners, one set each; directly owned, a set
        # only for a node with a child (module docstring).
        self._parents: Dict[str, Set[str]] = {}
        self._children: Dict[str, Set[str]] = {}
        # Compact leaves (module docstring): cid -> only owner, or None.
        self._leaf: Dict[str, Optional[str]] = {}
        # Whether owners' child sets hold their compact leaves (_kids).
        self._mirrored = False
        # Bulk populations, one record each, and the members removed
        # after their touch (module docstring).
        self._populations: List[Population] = []
        self._removed: Set[str] = set()
        # The four caches (module docstring).  Ancestor sets, inclusive,
        # for contexts with a child only (_lineage); (src, dst) -> path.
        self._anc_cache: Dict[str, Set[str]] = {}
        self._share_cache: Dict[str, Set[str]] = {}
        self._dom_cache: Dict[str, str] = {}
        self._path_cache: Dict[Tuple[str, str], List[str]] = {}
        self._vroot_counter = 0
        # Structural epoch, bumped on every mutation; lets long-lived
        # consumers (e.g. client-side location caches) detect staleness.
        self.epoch = 0

    # ------------------------------------------------------------------
    # Structure mutation
    # ------------------------------------------------------------------
    def add_context(self, cid: str, parents: Iterable[str] = ()) -> None:
        """Add a fresh (childless) context, optionally under parents.

        This is the fast path: a new leaf cannot lower any least upper
        bound, so caches are patched incrementally rather than cleared.
        With at most one parent the context is a compact leaf
        (:meth:`add_leaves`); with several it is a full node.
        """
        parent_list = sorted(set(parents))
        if len(parent_list) <= 1:
            self.add_leaves([cid], parent_list or [None])
            return
        if cid in self:
            raise ValueError(f"context {cid!r} already exists")
        for parent in parent_list:
            self._require(parent)
        for parent in parent_list:
            self._promote(parent)
            self._children.setdefault(parent, set()).add(cid)
        # A childless node: no child set, and no share seed (its share is
        # empty, as a compact leaf's; nothing patches it, and ``share``
        # computes it if ever asked).
        self._parents[cid] = set(parent_list)
        self.epoch += 1
        ancestor_sets = [self._lineage(parent) for parent in parent_list]
        # New sharing pairs arise only between ancestors of different
        # parents of the leaf (the leaf is their new common descendant).
        for i, left_parent in enumerate(parent_list):
            for j, right_parent in enumerate(parent_list):
                if i >= j:
                    continue
                for left in ancestor_sets[i]:
                    for right in ancestor_sets[j]:
                        if left == right:
                            continue
                        self._record_new_sharing(left, right, left_parent, right_parent)

    def add_leaves(
        self, cids: Sequence[str], parents: Sequence[Optional[str]]
    ) -> None:
        """Add fresh childless contexts, ``cids[i]`` under ``parents[i]``.

        ``parents[i]`` is an existing context or ``None``.  The whole
        batch is validated before the first mutation.  It is checked and
        written with no Python loop per leaf, unless the child sets are
        filled (:meth:`_kids`) and each leaf enters its owner's set.  A
        leaf with one owner changes no share set and no existing
        context's ancestors, so no cache is patched.
        """
        if len(parents) != len(cids):
            raise ValueError(f"{len(cids)} context ids but {len(parents)} parents")
        leaf = self._leaf
        owners = dict.fromkeys(parents)
        owners.pop(None, None)
        if not (leaf.keys().isdisjoint(cids) and self._parents.keys().isdisjoint(cids)):
            self._reject(cids, owners)
        if self._populations and any(self.member(cid) for cid in cids):
            self._reject(cids, owners)
        for owner in owners:
            if owner not in self._parents and owner not in leaf and not self.member(owner):
                self._reject(cids, owners)
        size = len(leaf)
        leaf.update(zip(cids, parents))
        if len(leaf) - size != len(cids):
            # A cid repeated in the batch.  None of the batch's cids
            # existed before, so popping them all restores the map.
            for cid in cids:
                leaf.pop(cid, None)
            self._reject(cids, owners)
        self.epoch += len(cids)
        for owner in owners:
            self._promote(owner)
        if self._mirrored:
            children = self._children
            for cid, parent in zip(cids, parents):
                if parent is not None:
                    children.setdefault(parent, set()).add(cid)

    def _reject(self, cids: Sequence[str], owners: Iterable[str]) -> None:
        """Raise what a bad batch earns: a repeated or existing cid (the
        first in batch order), else the first unknown owner."""
        seen: Set[str] = set()
        for cid in cids:
            if cid in seen or cid in self:
                raise ValueError(f"context {cid!r} already exists")
            seen.add(cid)
        for owner in owners:
            self._require(owner)

    def add_population(self, population: Population) -> None:
        """Register a bulk population as its one record.

        All or nothing: a prefix inside the virtual namespace, a member
        that is already registered (a context in the maps, or a member of
        another population) or an unknown owner raises before anything is
        registered.  No member gets a map entry (module docstring); the
        owners are promoted, and if the child sets are filled
        (:meth:`_kids`) each member enters its owner's set.
        """
        prefix, parents = population.prefix, population.parents
        if prefix.startswith(VIRTUAL_PREFIX):
            raise ValueError(f"prefix {prefix!r} is in the virtual namespace")
        for other in self._populations:
            # The smallest member of the longer prefix is the only one that
            # can also be a member of the shorter.
            for short, long in ((other, population), (population, other)):
                first = f"{long.prefix}0"
                if long.count and long.prefix.startswith(short.prefix) and short.index(first) >= 0:
                    raise ValueError(f"context {first!r} already exists")
        for cid in chain(self._parents, self._leaf):
            if cid.startswith(prefix) and population.index(cid) >= 0:
                raise ValueError(f"context {cid!r} already exists")
        owners = dict.fromkeys(parents or ())
        owners.pop(None, None)
        for owner in owners:
            if owner not in self._parents and owner not in self._leaf:
                self._require(owner)  # an untouched member, or unknown
        self._populations.append(population)
        self.epoch += population.count
        for owner in owners:
            self._promote(owner)
        if self._mirrored and parents is not None:
            children = self._children
            for i in range(population.count):
                parent = population.owner(i)
                if parent is not None:
                    children.setdefault(parent, set()).add(f"{prefix}{i}")

    def member(
        self, cid: str, touch: bool = False
    ) -> Optional[Tuple[Population, int]]:
        """``(population, i)`` if ``cid`` is leaf ``i`` of a population, else
        ``None`` (a member removed after its touch is none).

        The answer comes from the record, touched or not.  With ``touch``
        an untouched member gets its compact-leaf entry: a mutation that
        names it calls this first (module docstring).
        """
        for population in self._populations:
            # Population.index, open-coded: the runtime's first touch of a
            # leaf and a dominator query on it make this one call each.
            prefix = population.prefix
            if cid.startswith(prefix):
                digits = cid[len(prefix):]
                if (
                    digits.isdecimal() and digits.isascii()
                    and len(digits) <= population.width
                    and (digits[0] != "0" or len(digits) == 1)
                ):
                    i = int(digits)
                    if i < population.count and cid not in self._removed:
                        if touch and cid not in self._leaf and cid not in self._parents:
                            self._leaf[cid] = population.owner(i)
                            population.untouched -= 1
                        return population, i
        return None

    def bulk_members(self) -> Iterator[Tuple[Population, int, str]]:
        """``(population, i, cid)`` of every member, touched or not, by
        population and index."""
        removed = self._removed
        for population in self._populations:
            prefix = population.prefix
            for i in range(population.count):
                cid = f"{prefix}{i}"
                if cid not in removed:
                    yield population, i, cid

    def _untouched(self) -> Iterator[Tuple[str, Optional[str]]]:
        """``(cid, owner)`` of every member without a map entry."""
        leaf, full = self._leaf, self._parents
        for population, i, cid in self.bulk_members():
            if population.untouched and cid not in leaf and cid not in full:
                yield cid, population.owner(i)

    def _promote(self, cid: str) -> None:
        """Turn a compact leaf into a full node (no-op on a full node).

        Its share set is seeded empty, as the compact form answers: the
        node is promoted because it is gaining a child or an owner, so
        leaf additions below it will patch that set, and the seed keeps
        ``share``/``dominator`` warm (TPC-C's Customers, on each
        NewOrder).  It gets no child set (the caller's edge creates one).
        A full node is in its owner's child set whether or not
        :meth:`_kids` has filled the sets.
        """
        if cid not in self._leaf:
            if cid in self._parents:
                return
            self.member(cid, touch=True)  # an untouched bulk member
        parent = self._leaf.pop(cid)
        self._parents[cid] = set() if parent is None else {parent}
        self._share_cache[cid] = set()
        if parent is not None:
            self._children.setdefault(parent, set()).add(cid)

    def _kids(self) -> Dict[str, Set[str]]:
        """The child-set map, with every compact leaf in its owner's set.

        The first call enters the compact leaves in one pass, creating an
        owner's set where it has none; from then on :meth:`add_leaves`
        keeps the sets filled.  The map holds a set only for a context
        with a child, so a reader takes a missing entry as empty.  Every
        read of a child set goes through here (module docstring).
        """
        if not self._mirrored:
            self._mirrored = True
            children = self._children
            for cid, owner in chain(self._leaf.items(), self._untouched()):
                if owner is not None:
                    children.setdefault(owner, set()).add(cid)
        return self._children

    def _record_new_sharing(
        self, left: str, right: str, left_parent: str, right_parent: str
    ) -> None:
        """Register that ``left``/``right`` now share the new leaf.

        Both own the leaf, so both have a child: comparability is read
        from their ancestor-index entries (:meth:`_lineage`).
        """
        left_under_right = right in self._lineage(left)
        right_under_left = left in self._lineage(right)
        # Clause 1: a direct parent of the leaf appears in the share set
        # of every other ancestor (the leaf is a shared child) — unless
        # it is that ancestor's descendant (lub-irrelevant, see
        # _compute_share).
        if left == left_parent and not left_under_right:
            self._share_add(right, left)
        if right == right_parent and not right_under_left:
            self._share_add(left, right)
        # Clause 2: incomparable contexts with intersecting descendants.
        if not (left_under_right or right_under_left):
            self._share_add(left, right)
            self._share_add(right, left)

    def _share_add(self, owner: str, member: str) -> None:
        cached = self._share_cache.get(owner)
        if cached is not None and member not in cached:
            cached.add(member)
            self._dom_cache.pop(owner, None)

    def remove_context(self, cid: str) -> None:
        """Remove a context and all its ownership edges."""
        for parent in self.parents(cid):
            self._unlink(parent, cid)
        for child in self.children(cid):
            self._unlink(cid, child)
        self.member(cid, touch=True)
        if cid in self._leaf:
            del self._leaf[cid]
        else:
            del self._parents[cid]
            self._children.pop(cid, None)
        if self.member(cid) is not None:
            self._removed.add(cid)  # the record must not bring it back
        self._invalidate()

    def add_edge(self, parent: str, child: str) -> None:
        """Record that ``parent`` directly owns ``child``.

        Raises :class:`OwnershipCycleError` if the edge would create a
        cycle — the runtime check the paper requires for inductive
        (self-recursive) contextclass structures.
        """
        self._require(parent)
        self._require(child)
        if child in self._kids().get(parent, ()):
            return
        self._check_no_cycle(parent, child)
        self._promote(parent)
        self._promote(child)
        self._children.setdefault(parent, set()).add(child)
        self._parents[child].add(parent)
        self._invalidate()

    def remove_edge(self, parent: str, child: str) -> None:
        """Remove a direct-ownership edge (no-op if absent)."""
        self._require(parent)
        self._require(child)
        if child not in self._kids().get(parent, ()):
            return
        self._unlink(parent, child)
        self._invalidate()

    def _unlink(self, parent: str, child: str) -> None:
        """Drop the ``parent -> child`` edge; the child keeps its form (an
        untouched bulk member is touched first)."""
        self.member(child, touch=True)
        children = self._kids()
        kids = children[parent]
        kids.discard(child)
        if not kids:
            del children[parent]
        if child in self._leaf:
            self._leaf[child] = None
        else:
            self._parents[child].discard(parent)

    def _check_no_cycle(self, parent: str, child: str) -> None:
        if parent == child or parent in self._reachable_from(child):
            raise OwnershipCycleError(
                f"edge {parent!r} -> {child!r} would create an ownership cycle"
            )

    def _invalidate(self) -> None:
        self._anc_cache.clear()
        self._share_cache.clear()
        self._dom_cache.clear()
        self._path_cache.clear()
        self.epoch += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, cid: str) -> bool:
        if cid in self._parents or cid in self._leaf:
            return True
        # No call without a population: every new TPC-C Order asks.
        return bool(self._populations) and self.member(cid) is not None

    def __len__(self) -> int:
        untouched = sum(population.untouched for population in self._populations)
        return len(self._parents) + len(self._leaf) + untouched

    def contexts(self) -> List[str]:
        """All context ids, including virtual join contexts."""
        return [*self._parents, *self._leaf, *(cid for cid, _ in self._untouched())]

    def parents(self, cid: str) -> Set[str]:
        """Direct owners of ``cid``."""
        self._require(cid)
        return set(self._owners(cid))

    def _owners(self, cid: str) -> Iterable[str]:
        """The direct owners of an existing context, in either form."""
        full = self._parents.get(cid)
        if full is not None:
            return full
        try:
            owner = self._leaf[cid]
        except KeyError:
            owner = self._bulk_owner(cid)
        return () if owner is None else (owner,)

    def _bulk_owner(self, cid: str) -> Optional[str]:
        """The owner of an untouched bulk member; ``None`` for a member
        with none and for a cid that is no member."""
        found = self.member(cid)
        return None if found is None else found[0].owner(found[1])

    def children(self, cid: str) -> Set[str]:
        """Contexts directly owned by ``cid``."""
        self._require(cid)
        if cid not in self._parents:  # a compact leaf or an untouched member
            return set()
        return set(self._kids().get(cid, ()))

    def is_virtual(self, cid: str) -> bool:
        """Whether ``cid`` is an automatically added join context."""
        return cid.startswith(VIRTUAL_PREFIX)

    def descendants(self, cid: str) -> Set[str]:
        """``desc(G, C)``, inclusive: a fresh set, walked down per call."""
        self._require(cid)
        if cid not in self._parents:  # a compact leaf or an untouched member
            return {cid}
        return self._reachable_from(cid)

    def ancestors(self, cid: str) -> FrozenSet[str]:
        """All contexts that transitively own ``cid``, inclusive."""
        self._require(cid)
        return frozenset(self._ancestors_of(cid))

    def roots(self) -> List[str]:
        """Contexts with no owners (maximal elements)."""
        roots = [cid for cid, parents in self._parents.items() if not parents]
        leaves = chain(self._leaf.items(), self._untouched())
        roots.extend(cid for cid, parent in leaves if parent is None)
        return roots

    def owns(self, owner: str, owned: str) -> bool:
        """Whether ``owner`` transitively owns ``owned`` (or equals it).

        Answered upward, from the ancestor-index entries of ``owned``'s
        direct owners (:meth:`_lineage`).  Every owner is asked, so the
        work does not depend on set order.
        """
        if owner == owned:
            self._require(owner)
            return True
        parents = self._parents.get(owned)
        if parents is None:
            try:
                parent = self._leaf[owned]
            except KeyError:
                parent = self._bulk_owner(owned)
            parents = () if parent is None else (parent,)
        found = False
        for parent in parents:
            if owner in self._lineage(parent):
                found = True
        if not found:
            self._require(owner)
        return found

    def _reachable_from(self, cid: str) -> Set[str]:
        children = self._kids()
        seen = {cid}
        frontier = deque([cid])
        while frontier:
            node = frontier.popleft()
            for child in children.get(node, ()):
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)
        return seen

    def _ancestors_of(self, cid: str) -> Set[str]:
        """``cid`` and every context that transitively owns it.

        The index entry if ``cid`` has one; otherwise a fresh set built
        from its direct owners' entries, so a childless context (an
        Order, a compact leaf) never gets an entry of its own.  Callers
        must not mutate the result.
        """
        found = self._anc_cache.get(cid)
        if found is None:
            found = {cid}
            for owner in self._owners(cid):
                found |= self._lineage(owner)
        return found

    def _lineage(self, cid: str) -> Set[str]:
        """The ancestor-index entry of ``cid``, a context with a child.

        Filled on the first query by an upward walk that takes in whole
        any entry it meets; kept across leaf additions and cleared by
        every other mutation (:meth:`_invalidate`).  Callers must not
        mutate the result.
        """
        found = self._anc_cache.get(cid)
        if found is None:
            index = self._anc_cache
            found = {cid}
            frontier = [cid]
            while frontier:
                for owner in self._owners(frontier.pop()):
                    if owner not in found:
                        known = index.get(owner)
                        if known is None:
                            found.add(owner)
                            frontier.append(owner)
                        else:
                            found |= known
            index[cid] = found
        return found

    # ------------------------------------------------------------------
    # share / dominator (§3 of the paper)
    # ------------------------------------------------------------------
    def share(self, cid: str) -> Set[str]:
        """Contexts that might conflict with events targeting ``cid``.

        Returns a copy of the cached set, patched across leaf additions.
        """
        self._require(cid)
        if cid not in self._parents:  # a compact leaf or an untouched member
            return set()
        cached = self._share_cache.get(cid)
        if cached is None:
            cached = self._compute_share(cid)
            self._share_cache[cid] = cached
        return set(cached)

    def _compute_share(self, cid: str) -> Set[str]:
        """``share(C)``, read upward from one walk down to ``desc(C)``.

        Both clauses skip ``desc(C)``: an ancestor of C owns all of it,
        so it never moves ``lub(share ∪ {C})``.  Clause 1 is each direct
        owner outside ``desc(C)`` of a proper descendant.  A clause-2
        context, not C's ancestor, enters ``desc(C)`` below C, through
        such an owner: it is in that owner's ancestor-index entry.
        """
        mine = self._reachable_from(cid)
        my_ancestors = self._ancestors_of(cid)
        sharing: Set[str] = set()
        for node in mine:
            if node == cid:
                continue
            for owner in self._owners(node):
                if owner not in mine and owner not in sharing:
                    sharing |= self._lineage(owner) - my_ancestors
                    sharing.add(owner)
        return sharing

    def dominator(self, cid: str, registered: bool = False) -> str:
        """``dom(G, C)``: the sequencing context for events targeting C.

        Computed as the least upper bound of ``share(C) ∪ {C}``.  If the
        bound does not exist or is not unique, a virtual join context is
        created over the relevant maxima (the semi-lattice completion)
        and becomes the dominator.  Cached until invalidated.

        A compact leaf is its own dominator: it has no proper
        descendants to share (clause 1), and whoever has it as a
        descendant is its ancestor, hence comparable (clause 2), so
        ``share`` is empty and ``lub({C}) = C``.

        A cid in neither map is an unmutated bulk member, or unknown
        (``UnknownContextError``), which parsing it tells apart.  A
        caller that already knows ``cid`` is registered — the runtime
        has built its instance — passes ``registered=True`` to skip
        that parse.
        """
        cached = self._dom_cache.get(cid)
        if cached is not None and cached in self._parents:
            return cached
        if cid in self._leaf:
            return cid
        if cid not in self._parents:
            # An unmutated bulk member, materialised or not: one parse,
            # unless the caller vouches for the cid.
            if not registered and self.member(cid) is None:
                raise UnknownContextError(f"unknown context {cid!r}")
            return cid
        group = self.share(cid) | {cid}
        dominator = self._lub(group)
        self._dom_cache[cid] = dominator
        return dominator

    def _lub(self, group: Set[str]) -> str:
        if len(group) == 1:
            return next(iter(group))
        common: Optional[Set[str]] = None
        for member in group:
            member_ancestors = self._ancestors_of(member)
            common = member_ancestors if common is None else (common & member_ancestors)
        assert common is not None
        if common:
            minimal = self._minimal_of(common)
            if len(minimal) == 1:
                return minimal[0]
            join_over = minimal
        else:
            # Disjoint maxima sharing descendants: join their roots.
            join_over = sorted(
                {root for member in group for root in self._roots_above(member)}
            )
        return self._virtual_join(join_over)

    def _minimal_of(self, candidates: Set[str]) -> List[str]:
        """Elements of ``candidates`` that own no other element, sorted.

        Each candidate is a common ancestor of two or more contexts, so
        it has a child and an ancestor-index entry (:meth:`_lineage`).
        """
        owning: Set[str] = set()
        for candidate in candidates:
            above = candidates & self._lineage(candidate)
            above.discard(candidate)
            owning |= above
        return sorted(candidates - owning)

    def _roots_above(self, cid: str) -> List[str]:
        return [a for a in self._ancestors_of(cid) if not self._parents[a]]

    def _virtual_join(self, members: List[str]) -> str:
        """Find or create the virtual context owning all of ``members``."""
        key = set(members)
        children = self._kids()
        for candidate in self._parents:
            if self.is_virtual(candidate) and key.issubset(children.get(candidate, ())):
                return candidate
        self._vroot_counter += 1
        vroot = f"{VIRTUAL_PREFIX}{self._vroot_counter}"
        self._parents[vroot] = set()
        self._children[vroot] = set(members)
        for member in members:
            self._parents[member].add(vroot)
        self._invalidate()
        return vroot

    # ------------------------------------------------------------------
    # Paths (Algorithm 2, ``findPath``)
    # ------------------------------------------------------------------
    def find_path(self, src: str, dst: str) -> List[str]:
        """A shortest ownership path from ``src`` down to ``dst``, inclusive.

        Deterministic (children explored in sorted order).  Raises
        :class:`UnknownContextError` if either endpoint is missing and
        ``ValueError`` if ``dst`` is not a descendant of ``src``.
        """
        cached = self._path_cache.get((src, dst))
        if cached is not None:
            return list(cached)
        self._require(src)
        self._require(dst)
        if src == dst:
            return [src]
        # Walk upward from dst: ancestor sets are shallow even when the
        # graph holds many sibling leaves (TPC-C Orders), so this is far
        # cheaper than a downward BFS over the whole descendant set.
        back: Dict[str, str] = {}
        frontier = deque([dst])
        while frontier:
            node = frontier.popleft()
            for parent in sorted(self._owners(node)):
                if parent in back or parent == dst:
                    continue
                back[parent] = node
                if parent == src:
                    path = [src]
                    while path[-1] != dst:
                        path.append(back[path[-1]])
                    self._path_cache[(src, dst)] = path
                    return list(path)
                frontier.append(parent)
        raise ValueError(f"{dst!r} is not a descendant of {src!r}")

    def _require(self, cid: str) -> None:
        if cid not in self._parents and cid not in self._leaf and not self.member(cid):
            raise UnknownContextError(f"unknown context {cid!r}")

    # ------------------------------------------------------------------
    # Validation / export
    # ------------------------------------------------------------------
    def is_acyclic(self) -> bool:
        """Verify the whole network is a DAG (used by tests and checks)."""
        # Over the full nodes: a compact leaf is childless, so it is on
        # no cycle.
        children = self._kids()
        in_degree = {cid: len(parents) for cid, parents in self._parents.items()}
        frontier = deque([cid for cid, deg in in_degree.items() if deg == 0])
        visited = 0
        while frontier:
            node = frontier.popleft()
            visited += 1
            for child in children.get(node, ()):
                if child in in_degree:
                    in_degree[child] -= 1
                    if in_degree[child] == 0:
                        frontier.append(child)
        return visited == len(self._parents)

    def edges(self) -> List[Tuple[str, str]]:
        """All (parent, child) ownership edges."""
        return [
            (parent, child)
            for parent, kids in self._kids().items()
            for child in kids
        ]

    def snapshot(self) -> Dict[str, List[str]]:
        """A serializable copy of the adjacency (parent -> children)."""
        children = self._kids()
        adjacency = {cid: sorted(children.get(cid, ())) for cid in self._parents}
        adjacency.update((cid, []) for cid in self._leaf)
        adjacency.update((cid, []) for cid, _ in self._untouched())
        return adjacency
