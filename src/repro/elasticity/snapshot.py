"""Consistent snapshots for fault tolerance (§5.3).

A snapshot request for a context captures the state of the context *and
all its descendants* and writes the bundle to cloud storage.  A context
whose ``state_snapshot`` returns ``None`` is skipped (the paper's
checkpoint-skipping override).

Capture follows the runtime, decided in one place (:func:`_capture`).
Where ownership is enforced, a special read-only event read-locks the
subtree top-down, so the bundle is a single point in the serial order.
Runtimes whose locking has no global acquisition order (Orleans'
per-call turn locks) would deadlock against such an event: they capture
inline with no locks, per context — the per-grain persistence guarantee,
where a bundle may mix states from different points of the serial order.

:class:`Checkpointer` writes the whole subtree as one ``{cid: state}``
bundle.  :class:`DeltaCheckpointer` is the *incremental* mode: instead
of re-uploading the whole subtree every interval, it stores a **base
bundle plus a bounded chain of delta bundles**, each recording the
per-context ``_aeon_version`` it captured.  A context whose version has
not moved since the previous bundle is skipped (its bytes are never
re-shipped); an interval in which *nothing* moved writes no bundle at
all.  After ``DeltaCheckpointer.MAX_CHAIN`` deltas the checkpointer
re-bases (one full upload, resetting the chain), which bounds both
recovery read fan-out and storage growth.  :func:`read_checkpoint`
reassembles base + chain (or passes a full bundle through) for the
recovery path.
"""

from __future__ import annotations

import copy
import itertools
from typing import Dict, Generator, List, Optional, Tuple

from ..core.context import ContextRef
from ..core.events import AccessMode, CallSpec, Event
from ..core.locking import acquire
from ..core.runtime import RuntimeBase
from ..sim.kernel import Signal
from .storage import CloudStorage

__all__ = [
    "snapshot_context",
    "Checkpointer",
    "DeltaCheckpointer",
    "read_checkpoint",
]

#: Snapshot ids: synthetic event ids and default snapshot keys.
_SNAPSHOT_IDS = itertools.count(1)

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


def snapshot_context(
    runtime: RuntimeBase,
    storage: CloudStorage,
    target: ContextRef,
    key: Optional[str] = None,
) -> Signal:
    """Snapshot ``target`` and its descendants as one full bundle.

    Returns a signal that fires with the storage key once the snapshot
    is durable.  Where ownership is enforced the capture read-locks the
    whole subtree (top-down, in deterministic order), so it is
    consistent with the strict-serializable event order; concurrent
    read-only events still proceed.
    """
    storage_key = key or f"snapshot/{target.cid}/{next(_SNAPSHOT_IDS)}"
    return Checkpointer(runtime, storage, target.cid, storage_key).checkpoint()


def _capture(runtime: RuntimeBase, root_cid: str, persist, name: str) -> Signal:
    """Run ``persist(members) -> (write_or_None, value)`` over
    ``root_cid``'s subtree; returns a completion signal.

    The one place the capture discipline is decided.  With ownership
    enforced every event locks top-down along ownership paths, so a
    subtree read-locked in that order is consistent and deadlock-free
    (:func:`_locked_capture`).  Orleans opts out of that order: its
    members are captured here and now, with no locks.  The signal
    succeeds with ``persist``'s value once its write (if any) landed.
    """
    sim = runtime.sim
    done = sim.signal(name=name)
    if runtime.enforce_ownership:
        sim.process(_locked_capture(runtime, root_cid, persist, done), name=name)
        return done
    try:
        write, value = persist(subtree_members(runtime, root_cid))
    except Exception as exc:  # noqa: BLE001 - surfaced to the caller
        done.fail(exc)
        return done
    if write is None:
        done.succeed(value)
    else:
        write.add_callback(lambda _sig: done.succeed(value))
    return done


def _locked_capture(
    runtime: RuntimeBase, root_cid: str, persist, done: Signal
) -> Generator:
    """Run ``persist(ordered_members)`` under subtree read locks.

    A synthetic read-only event read-locks the subtree top-down
    (ancestors before descendants), so acquisition order is consistent
    with every other event.  The write (if any) is awaited while the
    locks are held, then ``done`` succeeds with ``persist``'s value.
    """
    event = Event(
        eid=-1_000_000 - next(_SNAPSHOT_IDS),  # synthetic ids, below migrations
        spec=CallSpec(root_cid, "__snapshot__"),
        mode=AccessMode.RO,
        client="~snapshot",
        submitted_ms=runtime.sim.now,
        tag="snapshot",
    )
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


class Checkpointer:
    """Rolling checkpoints of one subtree, one full bundle each.

    Each :meth:`checkpoint` writes every member's state under ``key`` as
    a plain ``{cid: state}`` bundle, captured as :func:`_capture`
    decides for the runtime.  Subclasses change what is written by
    overriding :meth:`persist` alone.
    """

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

    def checkpoint(self) -> Signal:
        """Capture and write the next bundle; returns a completion signal.

        The signal succeeds with :meth:`persist`'s value: the key for a
        full bundle.
        """
        return _capture(self.runtime, self.root, self.persist, f"checkpoint:{self.key}")

    def persist(self, members: List[str]) -> Tuple[Optional[Signal], object]:
        """Write ``members``' states; returns ``(write_signal, key)``."""
        states, total_bytes = _collect_states(self.runtime, members)
        write = self.storage.write(self.key, states, size_bytes=max(total_bytes, 64))
        return write, self.key


# ----------------------------------------------------------------------
# Incremental (base + delta chain) checkpoints
# ----------------------------------------------------------------------
class DeltaCheckpointer(Checkpointer):
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
    :meth:`checkpoint`'s signal succeeds with ``"base"``, ``"delta"`` or
    ``"skip"``.
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
        super().__init__(runtime, storage, root_cid, key)
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

    def persist(self, members: List[str]) -> Tuple[Optional[Signal], object]:
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

    * a full bundle (plain ``{cid: state}``) — returned as-is;
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
        return base  # full bundle: {cid: state}
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
