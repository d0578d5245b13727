"""Consistent snapshots for fault tolerance (§5.3).

A snapshot request for a context dispatches a special read-only event
that captures the state of the context *and all its descendants* as of a
single point in the serial order, then writes the bundle to cloud
storage.  A context whose ``state_snapshot`` returns ``None`` is skipped
(the paper's checkpoint-skipping override).

:func:`fuzzy_snapshot` is the uncoordinated counterpart — per-context
state capture with no cross-context locking, modelling per-grain
persistence (Orleans): the bundle may mix states from different points
of the serial order.  Runtimes whose locking has no global acquisition
order (Orleans' per-call turn locks) must use it: a subtree-locking
snapshot can deadlock against their events.

:class:`DeltaCheckpointer` is the *incremental* mode: instead of
re-uploading the whole subtree every interval, it stores a **base
bundle plus a bounded chain of delta bundles**, each recording the
per-context ``_aeon_version`` it captured.  A context whose version has
not moved since the previous bundle is skipped (its bytes are never
re-shipped); an interval in which *nothing* moved writes no bundle at
all.  After ``DeltaCheckpointer.MAX_CHAIN`` deltas the checkpointer
re-bases (one full upload, resetting the chain), which bounds both
recovery read fan-out and storage growth.  :func:`read_checkpoint`
reassembles base + chain (or passes a legacy full bundle through) for
the recovery path.
"""

from __future__ import annotations

import copy
from typing import Dict, Generator, List, Optional, Tuple

from ..core.context import ContextRef
from ..core.events import AccessMode, CallSpec, Event
from ..core.locking import acquire
from ..core.runtime import RuntimeBase
from ..sim.kernel import Signal
from .storage import CloudStorage

__all__ = [
    "snapshot_context",
    "fuzzy_snapshot",
    "DeltaCheckpointer",
    "read_checkpoint",
]

_SNAPSHOT_COUNTER = [0]

#: Hard cap on delta-chain reads during reassembly (a chain can never
#: legitimately grow past ``DeltaCheckpointer.MAX_CHAIN``; this guards
#: recovery against a corrupt key space).
_MAX_CHAIN_READS = 64


def _collect_states(runtime: RuntimeBase, ordered: List[str]) -> tuple:
    """``(states, total_bytes)`` for the given member contexts.

    States are deep-copied: ``state_snapshot`` returns field *values* by
    reference, and a durable bundle aliasing a live dict/list would be
    mutated in place by later events — turning a rollback-to-checkpoint
    into a silent no-op for any non-scalar field.
    """
    states: Dict[str, dict] = {}
    total_bytes = 0
    for cid in ordered:
        instance = runtime.instances.get(cid)
        if instance is None:
            continue
        state = instance.state_snapshot()
        if state is None:
            continue  # checkpoint-skipping override
        states[cid] = copy.deepcopy(state)
        total_bytes += int(getattr(instance, "size_bytes", 1024))
    return states, total_bytes


def subtree_members(runtime: RuntimeBase, root_cid: str) -> List[str]:
    """The non-virtual contexts of ``root_cid``'s subtree, sorted."""
    ownership = runtime.ownership
    return sorted(
        cid for cid in ownership.descendants(root_cid) if not ownership.is_virtual(cid)
    )


def fuzzy_snapshot(
    runtime: RuntimeBase,
    storage: CloudStorage,
    root_cid: str,
    key: Optional[str] = None,
) -> Signal:
    """Checkpoint a subtree with per-context capture and no locks.

    States are read at the call instant (each simulator callback is
    atomic, so individual states are never torn) but without any
    cross-context coordination — the weaker per-grain-persistence
    guarantee.  Returns the storage write's completion signal.
    """
    _SNAPSHOT_COUNTER[0] += 1
    storage_key = key or f"snapshot/{root_cid}/{_SNAPSHOT_COUNTER[0]}"
    states, total_bytes = _collect_states(runtime, subtree_members(runtime, root_cid))
    return storage.write(storage_key, states, size_bytes=max(total_bytes, 64))


def _snapshot_event(runtime: RuntimeBase, root_cid: str) -> tuple:
    """``(snap_id, synthetic read-only Event)`` for a subtree capture."""
    _SNAPSHOT_COUNTER[0] += 1
    snap_id = _SNAPSHOT_COUNTER[0]
    event = Event(
        eid=-1_000_000 - snap_id,  # synthetic id space, below migrations
        spec=CallSpec(root_cid, "__snapshot__"),
        mode=AccessMode.RO,
        client="~snapshot",
        submitted_ms=runtime.sim.now,
        tag="snapshot",
    )
    return snap_id, event


def snapshot_context(
    runtime: RuntimeBase,
    storage: CloudStorage,
    target: ContextRef,
    key: Optional[str] = None,
) -> Signal:
    """Take a consistent snapshot of ``target`` and its descendants.

    Returns a signal that fires with the storage key once the snapshot
    is durable.  The snapshot event takes read locks on the whole
    subtree (top-down, in deterministic order), so it is consistent with
    the strict-serializable event order; concurrent read-only events
    still proceed.
    """
    snap_id, event = _snapshot_event(runtime, target.cid)
    storage_key = key or f"snapshot/{target.cid}/{snap_id}"
    done = runtime.sim.signal(name=f"snapshot:{storage_key}")

    def persist(ordered: List[str]):
        states, total_bytes = _collect_states(runtime, ordered)
        write = storage.write(storage_key, states, size_bytes=max(total_bytes, 64))
        return write, storage_key

    runtime.sim.process(
        _locked_capture(runtime, event, target.cid, persist, done),
        name=f"snapshot-{snap_id}",
    )
    return done


def _locked_capture(
    runtime: RuntimeBase,
    event: Event,
    root_cid: str,
    persist,
    done: Signal,
) -> Generator:
    """Run ``persist(ordered_members)`` under subtree read locks.

    The subtree is read-locked top-down (ancestors before descendants)
    so acquisition order is consistent with every other event.
    ``persist`` returns ``(write_signal_or_None, done_value)``; the
    write (if any) is awaited while the locks are held, then ``done``
    succeeds with the value.  Shared by :func:`snapshot_context` and
    :class:`DeltaCheckpointer`'s locked capture, so the locking
    discipline lives in exactly one place.
    """
    ownership = runtime.ownership
    members = subtree_members(runtime, root_cid)
    ordered = sorted(members, key=lambda cid: (len(ownership.ancestors(cid)), cid))
    locks = []
    try:
        for cid in ordered:
            lock, grant, _owned = acquire(runtime.sim, runtime.locks, cid, event)
            yield grant
            locks.append(lock)
        write, value = persist(ordered)
        if write is not None:
            yield write
        done.succeed(value)
    except Exception as exc:  # noqa: BLE001 - surfaced to the caller
        done.fail(exc)
    finally:
        for lock in reversed(locks):
            lock.release(event)


# ----------------------------------------------------------------------
# Incremental (base + delta chain) checkpoints
# ----------------------------------------------------------------------
class DeltaCheckpointer:
    """Incremental checkpoints of one subtree: a base plus delta chain.

    Storage layout (for root key ``K`` — the eManager's rolling
    ``checkpoint/{root}``):

    * ``K`` — the base bundle: every member's state;
    * ``K/delta/1`` .. ``K/delta/n`` — the chain: only members whose
      ``_aeon_version`` moved since the previous bundle.

    Every bundle is ``{"kind", "seq", "states", "versions"}``.  ``seq``
    increases monotonically across bundles; reassembly applies a delta
    only when its seq is newer than what it has already absorbed, which
    makes stale chain keys left over from before a re-base harmless (no
    deletes needed, the key space stays bounded by ``MAX_CHAIN``).

    Capture follows the runtime (see :meth:`checkpoint`): under subtree
    read locks (the guarantee of :func:`snapshot_context`) where
    ownership is enforced, else the per-grain lock-free capture of
    :func:`fuzzy_snapshot`.
    """

    #: Deltas written before the next bundle re-bases.
    MAX_CHAIN = 6

    def __init__(
        self,
        runtime: RuntimeBase,
        storage: CloudStorage,
        root_cid: str,
        key: str,
    ) -> None:
        self.runtime = runtime
        self.storage = storage
        self.root = root_cid
        self.key = key
        #: Per-context ``_aeon_version`` as of the last written bundle.
        self._last_versions: Dict[str, int] = {}
        #: Per-context ownership signature (sorted direct children) as of
        #: the last bundle that shipped the context, plus the ownership
        #: epoch last examined: a wiring change (ref/refset mutation)
        #: whose data version held still is shipped as a *delta* — the
        #: snapshot states embed ``__refs__``/``__refsets__``, so a
        #: restore rebuilds the subtree's wiring from the chain without
        #: needing a full re-base.
        self._struct_sigs: Dict[str, Tuple[str, ...]] = {}
        self._ownership_epoch = -1
        #: Versions at which a context's ``state_snapshot`` returned
        #: None (the checkpoint-skipping override): while the version
        #: holds still, the decision holds too and the call is skipped.
        self._none_versions: Dict[str, int] = {}
        self._chain = 0
        # A fresh checkpointer over a storage that already holds bundles
        # (an eManager successor after recover()) must not reuse seq
        # numbers: a new base with a *lower* seq than surviving stale
        # deltas would wrongly revive them at reassembly time.  Seed the
        # counter past everything durable under our key.
        self._seq = 0
        for existing_key in storage.keys_with_prefix(key):
            payload = storage.peek(existing_key)
            if isinstance(payload, dict) and isinstance(payload.get("seq"), int):
                self._seq = max(self._seq, payload["seq"])
        self.bases_written = 0
        self.deltas_written = 0
        self.skipped = 0

    def checkpoint(self) -> Signal:
        """Write the next bundle (or skip); returns a completion signal.

        The signal succeeds with ``"base"``, ``"delta"`` or ``"skip"``.
        """
        sim = self.runtime.sim
        done = sim.signal(name=f"checkpoint:{self.key}")
        # Subtree locking is deadlock-free only under a global lock order:
        # with ownership enforced every event locks top-down along
        # ownership paths; Orleans opts out of that order, so per-grain.
        if self.runtime.enforce_ownership:
            snap_id, event = _snapshot_event(self.runtime, self.root)
            sim.process(
                _locked_capture(
                    self.runtime, event, self.root, self._capture_and_write, done
                ),
                name=f"checkpoint-{snap_id}",
            )
        else:
            try:
                write, kind = self._capture_and_write(
                    subtree_members(self.runtime, self.root)
                )
            except Exception as exc:  # noqa: BLE001 - surfaced to the caller
                done.fail(exc)
                return done
            if write is None:
                done.succeed("skip")
            else:
                write.add_callback(lambda _sig, k=kind: done.succeed(k))
        return done

    def _capture_and_write(
        self, members: List[str]
    ) -> Tuple[Optional[Signal], str]:
        """Capture ``members``, write base/delta/nothing, update tracking.

        Returns ``(write_signal_or_None, "base" | "delta" | "skip")``.
        The version bookkeeping is updated synchronously at capture time
        (the simulated write latency only delays durability, never what
        was captured).  ``state_snapshot`` is only called for members
        whose version moved (plus everyone on a re-base): an unchanged
        version means an unchanged state and an unchanged skip decision,
        so the common all-quiet interval costs one version read per
        member, not one state-dict build.
        """
        runtime = self.runtime
        last = self._last_versions
        none_seen = self._none_versions
        versions: Dict[str, int] = {}
        states: Dict[str, dict] = {}
        sizes: Dict[str, int] = {}
        changed: List[str] = []
        for cid in members:
            instance = runtime.instances.get(cid)
            if instance is None:
                continue
            version = instance._aeon_version
            if last.get(cid) == version:
                versions[cid] = version  # unchanged since the last bundle
                sizes[cid] = int(getattr(instance, "size_bytes", 1024))
                continue
            if none_seen.get(cid) == version:
                continue  # unchanged and known checkpoint-skipped
            state = instance.state_snapshot()
            if state is None:
                none_seen[cid] = version  # checkpoint-skipping override
                continue
            none_seen.pop(cid, None)
            versions[cid] = version
            states[cid] = state
            sizes[cid] = int(getattr(instance, "size_bytes", 1024))
            changed.append(cid)
        if not versions and not last:
            self.skipped += 1  # nothing checkpointable yet
            return None, "skip"
        rebase = not last or self._chain >= self.MAX_CHAIN
        ownership = runtime.ownership
        if not rebase and self._ownership_epoch != ownership.epoch:
            # The ownership network moved since the last bundle: ship any
            # member whose direct wiring changed even though its data
            # version held still (a leaf gained/lost elsewhere bumps the
            # global epoch without touching this subtree — the signature
            # check keeps those bundles as cheap skips).
            for cid in sorted(versions):
                if cid in states or cid not in ownership:
                    continue
                signature = tuple(sorted(ownership.children(cid)))
                if self._struct_sigs.get(cid) == signature:
                    continue
                instance = runtime.instances.get(cid)
                state = instance.state_snapshot() if instance is not None else None
                if state is None:
                    continue
                states[cid] = state
                changed.append(cid)
        self._ownership_epoch = ownership.epoch
        if not rebase and not changed:
            self.skipped += 1
            return None, "skip"
        if rebase:
            # A base ships every member, including unchanged ones whose
            # capture was skipped above: collect the stragglers now.
            for cid in versions:
                if cid in states:
                    continue
                instance = runtime.instances.get(cid)
                state = instance.state_snapshot() if instance is not None else None
                if state is None:  # vanished or flipped to skip mid-run
                    continue
                states[cid] = state
            versions = {cid: versions[cid] for cid in versions if cid in states}
            shipped = sorted(states)
            self._chain = 0
            key = self.key
            kind = "base"
            self.bases_written += 1
        else:
            shipped = changed
            self._chain += 1
            key = f"{self.key}/delta/{self._chain}"
            kind = "delta"
            self.deltas_written += 1
        for cid in shipped:
            if cid in ownership:
                self._struct_sigs[cid] = tuple(sorted(ownership.children(cid)))
        self._seq += 1
        bundle = {
            "kind": kind,
            "seq": self._seq,
            # Deep copies: the bundle must never alias live mutables
            # (see _collect_states).
            "states": {cid: copy.deepcopy(states[cid]) for cid in shipped},
            "versions": versions,
        }
        size_bytes = max(sum(sizes[cid] for cid in shipped), 64)
        self._last_versions = versions
        return self.storage.write(key, bundle, size_bytes=size_bytes), kind


def read_checkpoint(storage: CloudStorage, key: str) -> Generator:
    """Read and reassemble the checkpoint stored under ``key``.

    A generator (``states = yield from read_checkpoint(...)``) issuing
    simulated-latency storage reads.  Handles all three layouts:

    * legacy full bundle (plain ``{cid: state}``) — returned as-is;
    * a base bundle — its states, pruned to its member set;
    * a base + delta chain — deltas overlaid in order, each applied only
      if newer (by seq) than what is already absorbed, final member set
      taken from the newest absorbed bundle.

    Returns ``None`` when nothing durable exists under ``key``.
    """
    base = yield storage.read(key)
    if base is None:
        return None
    if not (isinstance(base, dict) and base.get("kind") == "base"):
        return base  # legacy full bundle: {cid: state}
    states: Dict[str, dict] = dict(base["states"])
    members = set(base["versions"])
    seq = base["seq"]
    for index in range(1, _MAX_CHAIN_READS + 1):
        delta = yield storage.read(f"{key}/delta/{index}")
        if not (isinstance(delta, dict) and delta.get("kind") == "delta"):
            break
        if delta["seq"] <= seq:
            # Stale leftover from before the last re-base: the current
            # chain is contiguous from index 1, so nothing newer follows.
            break
        states.update(delta["states"])
        members = set(delta["versions"])
        seq = delta["seq"]
    return {cid: state for cid, state in states.items() if cid in members}
