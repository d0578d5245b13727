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
``desc``, ``share`` and ``dom`` are cached.  The common dynamic mutation —
adding a fresh leaf context (TPC-C creates an Order context on every
NewOrder transaction) — is handled incrementally: descendant sets of the
ancestors gain the leaf, new sharing pairs are derived from the parents'
ancestor sets, and only dominators whose share set actually changed are
invalidated.  Any other mutation (edges between existing contexts,
removals) conservatively clears all caches.

Compact leaves
--------------
Almost every context in the evaluated applications (players, items,
terminals) is a childless context with at most one owner.  Such a leaf
is stored as one ``cid -> parent`` entry in a single map — no parent,
child, descendant or share set of its own — plus its membership in the
parent's child set and in the cached descendant sets of its ancestors.
It shares with nobody and is its own dominator by construction (see
:meth:`OwnershipNetwork.dominator`).  The first time it gains a child or
a second owner it is *promoted* to a full node; full nodes are never
demoted.  Hence every context that has a child, and every proper
ancestor of any context, is a full node.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .errors import FencedError, OwnershipCycleError, UnknownContextError

__all__ = ["FencingTable", "OwnershipNetwork", "VIRTUAL_PREFIX"]

VIRTUAL_PREFIX = "~vroot:"
"""Prefix of automatically created virtual (unnamed) join contexts."""


class FencingTable:
    """Per-subtree fencing epochs for honest failure handling.

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

    def root_of(self, cid: str) -> Optional[str]:
        """The tracked subtree root covering ``cid`` (None if untracked)."""
        return self._root_of.get(cid)

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
        # Full nodes: direct owners / directly owned, one set each.
        self._parents: Dict[str, Set[str]] = {}
        self._children: Dict[str, Set[str]] = {}
        # Compact leaves (module docstring): cid -> only owner, or None.
        self._leaf: Dict[str, Optional[str]] = {}
        self._desc_cache: Dict[str, Set[str]] = {}
        self._share_cache: Dict[str, Set[str]] = {}
        self._dom_cache: Dict[str, str] = {}
        # (src, dst) -> path; valid across leaf additions (a childless
        # leaf can't appear on, or shorten, a path between existing
        # nodes), cleared on every other structural mutation.
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
            self._children[parent].add(cid)
        self._parents[cid] = set(parent_list)
        self._children[cid] = set()
        self.epoch += 1
        self._desc_cache[cid] = {cid}
        self._share_cache[cid] = set()
        ancestor_sets = [self._ancestors_of(parent) for parent in parent_list]
        self._add_descendants(set().union(*ancestor_sets), (cid,))
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
        batch is validated before the first mutation, and each distinct
        parent's ancestor chain is resolved once per call, not per leaf.
        """
        if len(parents) != len(cids):
            raise ValueError(f"{len(cids)} context ids but {len(parents)} parents")
        seen: Set[str] = set()
        for cid in cids:
            if cid in seen or cid in self:
                raise ValueError(f"context {cid!r} already exists")
            seen.add(cid)
        groups: Dict[Optional[str], List[str]] = {}
        for cid, parent in zip(cids, parents):
            groups.setdefault(parent, []).append(cid)
        for parent in groups:
            if parent is not None:
                self._require(parent)
        self._leaf.update(zip(cids, parents))
        self.epoch += len(cids)
        for parent, group in groups.items():
            if parent is None:
                continue
            self._promote(parent)
            self._children[parent].update(group)
            self._add_descendants(self._ancestors_of(parent), group)

    def _promote(self, cid: str) -> None:
        """Turn a compact leaf into a full node (no-op on a full node).

        Its caches are seeded with what the compact form answers by
        construction, so the caller's incremental patching applies to it
        like to any other full node.
        """
        if cid not in self._leaf:
            return
        parent = self._leaf.pop(cid)
        self._parents[cid] = set() if parent is None else {parent}
        self._children[cid] = set()
        self._desc_cache[cid] = {cid}
        self._share_cache[cid] = set()

    def _add_descendants(self, ancestors: Iterable[str], leaves: Iterable[str]) -> None:
        """Add fresh ``leaves`` to the cached descendant sets of ``ancestors``."""
        for ancestor in ancestors:
            cached = self._desc_cache.get(ancestor)
            if cached is not None:
                cached.update(leaves)

    def _record_new_sharing(
        self, left: str, right: str, left_parent: str, right_parent: str
    ) -> None:
        """Register that ``left``/``right`` now share the new leaf."""
        left_desc = self.descendants(left)
        right_desc = self.descendants(right)
        incomparable = left not in right_desc and right not in left_desc
        # Clause 1: a direct parent of the leaf appears in the share set
        # of every other ancestor (the leaf is a shared child) — unless
        # it is that ancestor's descendant (lub-irrelevant, see
        # _compute_share).
        if left == left_parent and left not in right_desc:
            self._share_add(right, left)
        if right == right_parent and right not in left_desc:
            self._share_add(left, right)
        # Clause 2: incomparable contexts with intersecting descendants.
        if incomparable:
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
        if cid in self._leaf:
            del self._leaf[cid]
        else:
            del self._parents[cid]
            del self._children[cid]
        self._invalidate()

    def add_edge(self, parent: str, child: str) -> None:
        """Record that ``parent`` directly owns ``child``.

        Raises :class:`OwnershipCycleError` if the edge would create a
        cycle — the runtime check the paper requires for inductive
        (self-recursive) contextclass structures.
        """
        self._require(parent)
        self._require(child)
        if child in self._children.get(parent, ()):
            return
        self._check_no_cycle(parent, child)
        self._promote(parent)
        self._promote(child)
        self._children[parent].add(child)
        self._parents[child].add(parent)
        self._invalidate()

    def remove_edge(self, parent: str, child: str) -> None:
        """Remove a direct-ownership edge (no-op if absent)."""
        self._require(parent)
        self._require(child)
        if child not in self._children.get(parent, ()):
            return
        self._unlink(parent, child)
        self._invalidate()

    def _unlink(self, parent: str, child: str) -> None:
        """Drop the ``parent -> child`` edge; the child keeps its form."""
        self._children[parent].discard(child)
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
        self._desc_cache.clear()
        self._share_cache.clear()
        self._dom_cache.clear()
        self._path_cache.clear()
        self.epoch += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, cid: str) -> bool:
        return cid in self._parents or cid in self._leaf

    def __len__(self) -> int:
        return len(self._parents) + len(self._leaf)

    def contexts(self) -> List[str]:
        """All context ids, including virtual join contexts."""
        return [*self._parents, *self._leaf]

    def parents(self, cid: str) -> Set[str]:
        """Direct owners of ``cid``."""
        self._require(cid)
        return set(self._owners(cid))

    def _owners(self, cid: str) -> Iterable[str]:
        """The direct owners of an existing context, in either form."""
        full = self._parents.get(cid)
        if full is not None:
            return full
        owner = self._leaf[cid]
        return () if owner is None else (owner,)

    def children(self, cid: str) -> Set[str]:
        """Contexts directly owned by ``cid``."""
        self._require(cid)
        return set(self._children.get(cid, ()))

    def is_virtual(self, cid: str) -> bool:
        """Whether ``cid`` is an automatically added join context."""
        return cid.startswith(VIRTUAL_PREFIX)

    def descendants(self, cid: str) -> Set[str]:
        """``desc(G, C)``: all contexts reachable from ``cid``, inclusive.

        The returned set is the live cache entry; callers must not
        mutate it.
        """
        cached = self._desc_cache.get(cid)
        if cached is None:
            self._require(cid)
            if cid in self._leaf:
                return {cid}
            cached = self._reachable_from(cid)
            self._desc_cache[cid] = cached
        return cached

    def ancestors(self, cid: str) -> FrozenSet[str]:
        """All contexts that transitively own ``cid``, inclusive."""
        self._require(cid)
        return frozenset(self._ancestors_of(cid))

    def roots(self) -> List[str]:
        """Contexts with no owners (maximal elements)."""
        roots = [cid for cid, parents in self._parents.items() if not parents]
        roots.extend(cid for cid, parent in self._leaf.items() if parent is None)
        return roots

    def owns(self, owner: str, owned: str) -> bool:
        """Whether ``owner`` transitively owns ``owned`` (or equals it)."""
        return owned in self.descendants(owner)

    def _reachable_from(self, cid: str) -> Set[str]:
        seen = {cid}
        frontier = deque([cid])
        while frontier:
            node = frontier.popleft()
            for child in self._children.get(node, ()):
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)
        return seen

    def _ancestors_of(self, cid: str) -> Set[str]:
        seen = {cid}
        owner = self._leaf.get(cid)
        if owner is not None:
            # A compact leaf: continue from its only owner, a full node.
            seen.add(owner)
            cid = owner
        frontier = deque([cid])
        while frontier:
            node = frontier.popleft()
            for parent in self._parents.get(node, ()):
                if parent not in seen:
                    seen.add(parent)
                    frontier.append(parent)
        return seen

    # ------------------------------------------------------------------
    # share / dominator (§3 of the paper)
    # ------------------------------------------------------------------
    def share(self, cid: str) -> Set[str]:
        """Contexts that might conflict with events targeting ``cid``.

        Returns a copy; the internal cache is maintained incrementally
        for leaf additions and recomputed from scratch otherwise.
        """
        self._require(cid)
        if cid in self._leaf:
            return set()
        cached = self._share_cache.get(cid)
        if cached is None:
            cached = self._compute_share(cid)
            self._share_cache[cid] = cached
        return set(cached)

    def _compute_share(self, cid: str) -> Set[str]:
        mine = self.descendants(cid)
        mine_proper = mine - {cid}
        my_ancestors = self._ancestors_of(cid)
        sharing: Set[str] = set()
        # Full nodes only: a compact leaf is childless (clause 1) and
        # its only descendant, itself, lies under nobody incomparable
        # with it (clause 2), so it is in no share set.
        for other in self._parents:
            # Descendants of C never affect lub(share ∪ {C}) (every
            # ancestor of C is an ancestor of its descendants), so they
            # are excluded for both clauses.
            if other == cid or other in mine:
                continue
            # Clause 1: other's direct children intersect my proper
            # descendants (shared child with a (potential) owner).
            if not self._children[other].isdisjoint(mine_proper):
                sharing.add(other)
                continue
            # Clause 2: incomparable with intersecting descendant sets.
            if other in my_ancestors:
                continue
            if not mine.isdisjoint(self.descendants(other)):
                sharing.add(other)
        return sharing

    def dominator(self, cid: str) -> str:
        """``dom(G, C)``: the sequencing context for events targeting C.

        Computed as the least upper bound of ``share(C) ∪ {C}``.  If the
        bound does not exist or is not unique, a virtual join context is
        created over the relevant maxima (the semi-lattice completion)
        and becomes the dominator.  Cached until invalidated.

        A compact leaf is its own dominator: it has no proper
        descendants to share (clause 1), and whoever has it as a
        descendant is its ancestor, hence comparable (clause 2), so
        ``share`` is empty and ``lub({C}) = C``.
        """
        cached = self._dom_cache.get(cid)
        if cached is not None and cached in self._parents:
            return cached
        if cid in self._leaf:
            return cid
        self._require(cid)
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
        """Elements of ``candidates`` with no *descendant* also in the set."""
        minimal = []
        for candidate in sorted(candidates):
            below = self.descendants(candidate) - {candidate}
            if below.isdisjoint(candidates):
                minimal.append(candidate)
        return minimal

    def _roots_above(self, cid: str) -> List[str]:
        return [a for a in self._ancestors_of(cid) if not self._parents[a]]

    def _virtual_join(self, members: List[str]) -> str:
        """Find or create the virtual context owning all of ``members``."""
        key = set(members)
        for candidate in self._parents:
            if self.is_virtual(candidate) and self._children[candidate] >= key:
                return candidate
        self._vroot_counter += 1
        vroot = f"{VIRTUAL_PREFIX}{self._vroot_counter}"
        self._parents[vroot] = set()
        self._children[vroot] = set()
        for member in members:
            self._children[vroot].add(member)
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
        if cid not in self._parents and cid not in self._leaf:
            raise UnknownContextError(f"unknown context {cid!r}")

    # ------------------------------------------------------------------
    # Validation / export
    # ------------------------------------------------------------------
    def is_acyclic(self) -> bool:
        """Verify the whole network is a DAG (used by tests and checks)."""
        # Over the full nodes: a compact leaf is childless, so it is on
        # no cycle.
        in_degree = {cid: len(parents) for cid, parents in self._parents.items()}
        frontier = deque([cid for cid, deg in in_degree.items() if deg == 0])
        visited = 0
        while frontier:
            node = frontier.popleft()
            visited += 1
            for child in self._children[node]:
                if child in in_degree:
                    in_degree[child] -= 1
                    if in_degree[child] == 0:
                        frontier.append(child)
        return visited == len(self._parents)

    def edges(self) -> List[Tuple[str, str]]:
        """All (parent, child) ownership edges."""
        return [
            (parent, child)
            for parent, kids in self._children.items()
            for child in kids
        ]

    def snapshot(self) -> Dict[str, List[str]]:
        """A serializable copy of the adjacency (parent -> children)."""
        adjacency = {cid: sorted(kids) for cid, kids in self._children.items()}
        adjacency.update((cid, []) for cid in self._leaf)
        return adjacency
