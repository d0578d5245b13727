"""Contextclasses: the unit of data encapsulation and distribution.

A *contextclass* is declared by subclassing :class:`ContextClass`.
Context-typed fields are declared with the :class:`Ref` and
:class:`RefSet` descriptors — the equivalent of the paper's rule that
context types may only appear in contextclass declarations.  Assigning a
ref updates the runtime's ownership network (the *directly-owned*
relation), with the runtime cycle check rejecting mutations that would
break the DAG.

Methods are plain Python functions or generators (see
:mod:`repro.core.events` for the yield protocol).  ``@readonly`` marks a
method as read-only (the paper's ``ro`` modifier) and ``@cost(ms)``
overrides the default CPU work charged for executing it.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Type, Union

from .errors import AeonError
from .events import CallSpec

__all__ = [
    "ContextClass",
    "ContextRef",
    "Ref",
    "RefSet",
    "readonly",
    "cost",
    "is_readonly",
    "method_cost",
]


def readonly(method: Callable) -> Callable:
    """Mark a context method as read-only (``ro`` in the paper).

    Read-only events take read locks and run concurrently with each
    other; the runtime rejects state-modifying calls made from them.
    """
    method._aeon_readonly = True  # type: ignore[attr-defined]
    return method


def cost(work_ms: float) -> Callable[[Callable], Callable]:
    """Set the CPU unit-work charged when the method executes."""

    def wrap(method: Callable) -> Callable:
        method._aeon_cost = float(work_ms)  # type: ignore[attr-defined]
        return method

    return wrap


def is_readonly(method: Callable) -> bool:
    """Whether ``method`` was marked with :func:`readonly`."""
    return bool(getattr(method, "_aeon_readonly", False))


def method_cost(method: Callable, default_ms: float) -> float:
    """CPU unit-work for ``method`` (``@cost`` override or default)."""
    return float(getattr(method, "_aeon_cost", default_ms))


class ContextRef:
    """A location-transparent handle to a context.

    Attribute access builds :class:`CallSpec` descriptors::

        spec = player_ref.get_gold(50)   # a CallSpec, not an execution
        result = yield spec              # synchronous call inside a body
    """

    __slots__ = ("cid", "type_name", "_proxies")

    def __init__(self, cid: str, type_name: str) -> None:
        self.cid = cid
        self.type_name = type_name

    def __getattr__(self, name: str) -> Callable[..., CallSpec]:
        if name.startswith("_"):
            raise AttributeError(name)
        # Cache one builder per method name: bodies call the same few
        # methods on long-lived refs, and a fresh closure per nested
        # call is measurable.  The cache dict itself is lazy, so plain
        # refs stay two-slot cheap.
        try:
            proxies = self._proxies
        except AttributeError:
            proxies = {}
            self._proxies = proxies
        build = proxies.get(name)
        if build is None:
            cid = self.cid

            def build(*args: Any, **kwargs: Any) -> CallSpec:
                return CallSpec(cid, name, args, kwargs)

            build.__name__ = name
            proxies[name] = build
        return build

    def call(self, method: str, *args: Any, **kwargs: Any) -> CallSpec:
        """Explicit CallSpec constructor (useful for dynamic method names)."""
        return CallSpec(self.cid, method, args, kwargs)

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, ContextRef) and other.cid == self.cid

    def __hash__(self) -> int:
        return hash(self.cid)

    def __repr__(self) -> str:
        return f"<ref {self.type_name}:{self.cid}>"


class Ref:
    """A single-context reference field on a contextclass.

    Assignment replaces the ownership edge: the previously referenced
    child (if any) loses this owner, the new one gains it.
    """

    def __init__(self, target_type: Union[str, Type["ContextClass"]]) -> None:
        self.target_type = _type_name(target_type)
        self.name = ""

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, obj: "ContextClass", objtype: type = None) -> Optional[ContextRef]:
        if obj is None:
            return self  # type: ignore[return-value]
        refs = obj.__dict__.get("_aeon_refs")
        return refs.get(self.name) if refs is not None else None

    def __set__(self, obj: "ContextClass", value: Optional[ContextRef]) -> None:
        if value is not None and not isinstance(value, ContextRef):
            raise TypeError(f"field {self.name!r} requires a ContextRef or None")
        previous = obj._aeon_refs.get(self.name)
        if previous is not None and obj._aeon_bound:
            obj._aeon_runtime.ownership_unlink(obj.cid, previous.cid)
        obj._aeon_refs[self.name] = value
        if value is not None and obj._aeon_bound:
            obj._aeon_runtime.ownership_link(obj.cid, value.cid)


class RefSet:
    """A set-of-contexts field on a contextclass (``set<T>`` in the paper)."""

    def __init__(self, target_type: Union[str, Type["ContextClass"]]) -> None:
        self.target_type = _type_name(target_type)
        self.name = ""

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, obj: "ContextClass", objtype: type = None) -> "RefSetView":
        if obj is None:
            return self  # type: ignore[return-value]
        # The instance keeps the refs, not the view: a cached view would
        # point back at its owner, and a context must die by reference
        # count when its runtime lets go of it.
        refsets = obj._aeon_refsets
        refs = refsets.get(self.name)
        if refs is None:
            refs = refsets[self.name] = {}
        return RefSetView(obj, self.name, refs)

    def __set__(self, obj: "ContextClass", value: Any) -> None:
        raise AeonError(
            f"RefSet field {self.name!r} cannot be assigned; use .add()/.discard()"
        )


class RefSetView:
    """The ownership-maintaining view a RefSet field access returns.

    Made per access over the ``cid -> ref`` dict the owner holds, so
    every view of one field sees the same set.
    """

    __slots__ = ("_owner", "_name", "_refs")

    def __init__(
        self, owner: "ContextClass", name: str, refs: Dict[str, ContextRef]
    ) -> None:
        self._owner = owner
        self._name = name
        self._refs = refs

    def add(self, ref: ContextRef) -> None:
        """Add a child reference (creates an ownership edge)."""
        if not isinstance(ref, ContextRef):
            raise TypeError("RefSet.add requires a ContextRef")
        if ref.cid in self._refs:
            return
        self._refs[ref.cid] = ref
        if self._owner._aeon_bound:
            self._owner._aeon_runtime.ownership_link(self._owner.cid, ref.cid)

    def discard(self, ref: ContextRef) -> None:
        """Remove a child reference (drops the ownership edge)."""
        if ref.cid not in self._refs:
            return
        del self._refs[ref.cid]
        if self._owner._aeon_bound:
            self._owner._aeon_runtime.ownership_unlink(self._owner.cid, ref.cid)

    def __iter__(self) -> Iterator[ContextRef]:
        return iter(sorted(self._refs.values(), key=lambda r: r.cid))

    def __len__(self) -> int:
        return len(self._refs)

    def __contains__(self, ref: ContextRef) -> bool:
        return isinstance(ref, ContextRef) and ref.cid in self._refs

    def refs(self) -> List[ContextRef]:
        """A sorted list of the contained references."""
        return list(self)


class _LazyDictField:
    """Non-data descriptor: install ``{}`` in the instance dict on first use.

    Ref/RefSet bookkeeping used to be allocated eagerly for every
    instance in ``__new__``/``_aeon_new``; most contexts (and all
    massive-tier bulk contexts) never touch a ref field, so the two
    dicts per instance were pure overhead.  The installed dict shadows
    the descriptor, so the second access is a plain attribute hit.
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __get__(self, obj: "ContextClass", objtype: type = None) -> Dict[str, Any]:
        if obj is None:
            return self  # type: ignore[return-value]
        value: Dict[str, Any] = {}
        obj.__dict__[self.name] = value
        return value


class ContextClass:
    """Base class for all contextclasses.

    Instances are created through a runtime's ``create_context`` (never
    directly), which binds the instance to a context id, a hosting server
    and the ownership network before ``__init__`` runs, so that ref-field
    assignments inside ``__init__`` already maintain ownership edges.
    """

    #: Approximate serialized size used for migration/snapshot costs.
    size_bytes: int = 1024

    # These are assigned by the runtime in ``bind`` before __init__.
    _aeon_runtime: Any = None
    _aeon_cid: str = ""
    #: True after the hosting server crashed with crash realism enabled:
    #: the volatile state is gone and method execution must fail until a
    #: restore/rehydration repopulates it (class default keeps the flag
    #: off the per-instance dict, so the common case costs nothing).
    _aeon_state_dropped: bool = False
    #: Write-version counter; the class default keeps it off the
    #: instance dict until the first write.
    _aeon_version: int = 0
    # Ref/RefSet bookkeeping, allocated lazily on first use.
    _aeon_refs = _LazyDictField("_aeon_refs")
    _aeon_refsets = _LazyDictField("_aeon_refsets")

    def __init__(self) -> None:  # subclasses may override freely
        pass

    # ------------------------------------------------------------------
    # Runtime binding
    # ------------------------------------------------------------------
    @classmethod
    def _aeon_new(cls, runtime: Any, cid: str) -> "ContextClass":
        """Allocate and bind an instance without running ``__init__``."""
        instance = cls.__new__(cls)
        object.__setattr__(instance, "_aeon_runtime", runtime)
        object.__setattr__(instance, "_aeon_cid", cid)
        return instance

    @property
    def _aeon_bound(self) -> bool:
        return self._aeon_runtime is not None

    @property
    def cid(self) -> str:
        """This context's unique id."""
        return self._aeon_cid

    @property
    def ref(self) -> ContextRef:
        """A location-transparent reference to this context."""
        return ContextRef(self._aeon_cid, type(self).__name__)

    # ------------------------------------------------------------------
    # Introspection used by runtimes and the static analysis
    # ------------------------------------------------------------------
    @classmethod
    def declared_ref_types(cls) -> Set[str]:
        """Contextclass type names referenced by declared Ref/RefSet fields."""
        found: Set[str] = set()
        for attr in vars(cls).values():
            if isinstance(attr, (Ref, RefSet)):
                found.add(attr.target_type)
        for base in cls.__bases__:
            if issubclass(base, ContextClass) and base is not ContextClass:
                found |= base.declared_ref_types()
        return found

    def children_of_type(self, type_name: str) -> List[ContextRef]:
        """Directly owned contexts of the given type (Listing 1's
        ``children[Room]`` query), sorted by context id."""
        runtime = self._aeon_runtime
        if runtime is None:
            return []
        refs = []
        for child_cid in runtime.ownership.children(self._aeon_cid):
            child = runtime.instances.get(child_cid)
            if child is not None and type(child).__name__ == type_name:
                refs.append(child.ref)
        return sorted(refs, key=lambda r: r.cid)

    def state_snapshot(self) -> Dict[str, Any]:
        """The context's persistent state, for snapshots and migration.

        Override to return ``None`` to exclude a context from snapshots
        (the paper's checkpoint-skipping hook).
        """
        state = {
            key: value
            for key, value in self.__dict__.items()
            if not key.startswith("_aeon")
        }
        refs = self.__dict__.get("_aeon_refs") or {}
        refsets = self.__dict__.get("_aeon_refsets") or {}
        state["__refs__"] = {
            name: (ref.cid if ref else None) for name, ref in refs.items()
        }
        state["__refsets__"] = {
            name: sorted(members) for name, members in refsets.items()
        }
        state["__version__"] = self._aeon_version
        return state

    def state_restore(
        self,
        state: Dict[str, Any],
        *,
        restore_version: bool = False,
        restore_structure: bool = False,
    ) -> int:
        """Reset the plain persistent fields from a snapshot bundle entry.

        The crash-recovery path (§5.3): the context's volatile state is
        rolled back to the checkpoint.  By default Ref/RefSet wiring is
        left alone — ownership edges and the context mapping live in the
        runtime and cloud storage, not on the crashed server — and the
        version counter is bumped so later readers observe the rollback
        as a write.  Values are deep-copied in: the same durable bundle
        may restore this context again after a second crash, so the live
        instance must never share mutables with it.

        With ``restore_version`` (the honest-recovery path) the version
        counter is instead reset to the snapshot's ``__version__``, and
        the return value is the number of committed writes the rollback
        discarded (0 when the snapshot is at least as new as the live
        state).  With ``restore_structure`` the Ref/RefSet wiring is
        additionally rebuilt from the snapshot's ``__refs__``/
        ``__refsets__`` entries, re-maintaining ownership edges through
        the normal descriptors — delta-restored subtrees rebuild their
        wiring without a full re-base.

        Either way the instance is live again afterwards: a crash-time
        state drop (see :meth:`drop_volatile_state`) is cleared.
        """
        for key, value in state.items():
            if key in ("__refs__", "__refsets__", "__version__"):
                continue
            setattr(self, key, copy.deepcopy(value))
        if restore_structure:
            self._restore_wiring(state)
        rolled_back = 0
        if restore_version and "__version__" in state:
            restored = int(state["__version__"])
            rolled_back = max(0, self._aeon_version - restored)
            self._aeon_version = restored
        else:
            self._aeon_version += 1
        if self._aeon_state_dropped:
            del self._aeon_state_dropped  # fall back to the class default
        return rolled_back

    def _restore_wiring(self, state: Dict[str, Any]) -> None:
        """Rebuild Ref/RefSet fields from a snapshot's structure entries."""
        runtime = self._aeon_runtime

        def make_ref(cid: str) -> ContextRef:
            target = runtime.instances.get(cid) if runtime is not None else None
            type_name = type(target).__name__ if target is not None else "?"
            return ContextRef(cid, type_name)

        for name, cid in sorted((state.get("__refs__") or {}).items()):
            current = self._aeon_refs.get(name)
            if (current.cid if current else None) == cid:
                continue
            setattr(self, name, make_ref(cid) if cid else None)
        for name, cids in sorted((state.get("__refsets__") or {}).items()):
            view = getattr(self, name)
            wanted = set(cids)
            for ref in list(view):
                if ref.cid not in wanted:
                    view.discard(ref)
            for cid in sorted(wanted):
                if ContextRef(cid, "?") not in view:
                    view.add(make_ref(cid))

    def drop_volatile_state(self) -> int:
        """Mark the in-memory state as lost (the host crashed).

        Honest fail-stop semantics: the attribute values stay around
        only as simulator bookkeeping (so recovery can quantify the
        rolled-back work), but any method execution fails until a
        checkpoint restore repopulates the context.  Returns the version
        at the moment of the crash — the high-water mark of committed
        writes the crash made volatile.
        """
        self._aeon_state_dropped = True
        return self._aeon_version

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self._aeon_cid}>"


def _type_name(target_type: Union[str, Type[ContextClass]]) -> str:
    if isinstance(target_type, str):
        return target_type
    if isinstance(target_type, type) and issubclass(target_type, ContextClass):
        return target_type.__name__
    raise TypeError(f"Ref target must be a contextclass or name, got {target_type!r}")
