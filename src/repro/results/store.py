"""The on-disk result store: content-addressed keys, atomic persistence.

Layout (one directory, default ``.repro_results/``)::

    .repro_results/
        FORMAT            # the store/kernel version tag; mismatch wipes
        manifest.jsonl    # one JSON line per persisted entry (append-only)
        objects/
            <sha256>.pkl  # one zlib-compressed pickled value per key

Key derivation: :func:`cell_key` canonicalizes the cell's payload —
its ``"module:function"`` body path plus every kwarg, with frozen spec
dataclasses expanded field by field under their qualname (never their
module: keys name content and public names, not file locations) — into
deterministic JSON, prefixes
the :data:`STORE_TAG` (store format + kernel version), and SHA-256
hashes the result.  Anything that could change a cell's value (spec
fields, scale, seed, ``--set`` overrides, fault/fencing knobs, the
kernel generation) therefore lands in the key, so a stale hit is
impossible; anything absent from the payload (``--jobs``, wall-clock,
host) cannot affect the key, so results are shared across invocations
and processes.

Failure handling is deliberately boring: object files are written
temp-then-:func:`os.replace` (readers never see a partial write, a
killed writer leaves only a stray ``*.tmp*`` swept by ``gc``/``clear``),
unreadable or truncated entries are logged and treated as cache misses
(recompute and overwrite — never crash a sweep), and a
:data:`FORMAT_VERSION`/:data:`KERNEL_TAG` bump invalidates the whole
store on open rather than silently mixing formats.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import pickle
import threading
import time
import zlib
from pathlib import Path
from typing import Any, Dict, List, Optional

__all__ = [
    "FORMAT_VERSION",
    "KERNEL_TAG",
    "STORE_TAG",
    "DEFAULT_DIR",
    "DIR_ENV",
    "MODE_ENV",
    "MISS",
    "canonical",
    "cell_key",
    "ResultStore",
    "resolve_dir",
    "resolve_mode",
    "open_store",
]

log = logging.getLogger("repro.results")

#: Store layout generation: bump when the on-disk format changes.
#: 2: object files are zlib-compressed pickles (v1 stores wipe on open).
#: 3: keys name spec classes by qualname only, so v2 keys are unreachable.
FORMAT_VERSION = 3

#: Kernel/result generation: bump whenever simulation semantics change
#: (anything that would regenerate tests/data/figures_quick_seed0.json).
#: Every key embeds this tag, and the whole store is invalidated on open
#: when it moves — old results never mix with a new kernel.
KERNEL_TAG = "golden-quick-seed0-pr5"

#: The full version tag written to ``FORMAT`` and hashed into every key.
STORE_TAG = f"repro-results/{FORMAT_VERSION} kernel={KERNEL_TAG}"

#: Default store directory (relative to the invocation's CWD).
DEFAULT_DIR = ".repro_results"

#: Environment overrides honored by :func:`resolve_dir`/:func:`resolve_mode`.
DIR_ENV = "REPRO_RESULTS_DIR"
MODE_ENV = "REPRO_CACHE"

#: Sentinel returned by :meth:`ResultStore.load` when there is no usable
#: entry (distinct from ``None``, which is a legal cached value).
MISS = object()


# ----------------------------------------------------------------------
# Content-addressed keys
# ----------------------------------------------------------------------
def canonical(value: Any) -> Any:
    """A deterministic, JSON-encodable form of a cell payload value.

    Frozen spec dataclasses expand to ``["dataclass", qualname,
    {field: ...}]`` so *every* field lands in the key (the qualname
    without its module, so moving a class between files moves no key);
    tuples and lists collapse to tagged sequences; dict/set iteration
    order is sorted away (per the determinism contract, nothing may
    depend on hash order).  Unknown objects fall back to ``repr`` —
    stable for the value-like objects cells carry.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        fields = {
            f.name: canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return ["dataclass", cls.__qualname__, fields]
    if isinstance(value, dict):
        return ["dict", sorted((repr(k), canonical(v)) for k, v in value.items())]
    if isinstance(value, (list, tuple)):
        return ["seq", [canonical(v) for v in value]]
    if isinstance(value, (set, frozenset)):
        return [
            "set",
            sorted(json.dumps(canonical(v), sort_keys=True) for v in value),
        ]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return ["repr", repr(value)]


def cell_key(cell: Any) -> str:
    """The content hash addressing ``cell``'s persisted result.

    ``cell`` is anything with the :class:`~repro.exec.Cell`
    shape (``fn`` dotted path + ``kwargs``).  The cell's assembly ``key``
    is deliberately **excluded** — it is presentation, not content: the
    identical elastic setups fig7 and table1 share hash to one entry.
    """
    payload = json.dumps(
        ["cell", STORE_TAG, cell.fn, canonical(dict(cell.kwargs))],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _scenario_of(cell: Any) -> str:
    """Best-effort scenario label for the manifest (spec name or body path)."""
    spec = cell.kwargs.get("spec") if isinstance(cell.kwargs, dict) else None
    name = getattr(spec, "name", None)
    return name if isinstance(name, str) and name else cell.fn


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write-temp-then-rename: readers never observe a partial file."""
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class ResultStore:
    """A local content-addressed store of persisted cell results.

    Args: ``root`` the store directory (created on demand); ``refresh``
    makes every :meth:`load` a miss while :meth:`put` still overwrites —
    the ``--refresh`` recompute-and-repopulate mode.

    Thread safety: :meth:`put` may be called from executor completion
    callbacks (several threads of one parent process); writes are
    serialized by an internal lock and object files are atomic, so
    concurrent *processes* sharing a store directory at worst redo a
    cell and replace an entry with the identical bytes.

    ``hits``/``misses`` count this instance's :meth:`load` outcomes —
    the CLI summary and the CI 100%-warm-hits assertion read them.
    """

    def __init__(self, root: Any, refresh: bool = False) -> None:
        self.root = Path(root)
        self.refresh = bool(refresh)
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._objects = self.root / "objects"
        self._manifest = self.root / "manifest.jsonl"
        self._format = self.root / "FORMAT"
        self._open()

    # -- lifecycle ------------------------------------------------------
    def _open(self) -> None:
        """Create the layout; wipe any entries from another store version."""
        self._objects.mkdir(parents=True, exist_ok=True)
        try:
            tag = self._format.read_text(encoding="utf-8").strip()
        except OSError:
            tag = None
        if tag != STORE_TAG:
            if any(self._objects.iterdir()) or self._manifest.exists():
                log.warning(
                    "result store %s is %s (want %s): invalidating all entries",
                    self.root,
                    f"tagged {tag!r}" if tag else "untagged",
                    STORE_TAG,
                )
                self._wipe()
            _atomic_write_bytes(self._format, STORE_TAG.encode("utf-8"))

    def _wipe(self) -> None:
        for path in self._objects.iterdir():
            try:
                path.unlink()
            except OSError:
                pass
        try:
            self._manifest.unlink()
        except OSError:
            pass

    def _path(self, key: str) -> Path:
        return self._objects / f"{key}.pkl"

    # -- the cache protocol --------------------------------------------
    def load(self, cell: Any) -> Any:
        """The persisted value for ``cell``, or :data:`MISS`.

        A corrupted or truncated entry (bad pickle, partial write from a
        killed process) is logged and reported as a miss — the caller
        recomputes and :meth:`put` overwrites it atomically.
        """
        if self.refresh:
            with self._lock:
                self.misses += 1
            return MISS
        key = cell_key(cell)
        try:
            with open(self._path(key), "rb") as handle:
                value = pickle.loads(zlib.decompress(handle.read()))
        except FileNotFoundError:
            with self._lock:
                self.misses += 1
            return MISS
        except Exception as error:  # corrupt/truncated entry -> recompute
            log.warning(
                "result store: unreadable entry %s… (%s: %s); recomputing",
                key[:12],
                type(error).__name__,
                error,
            )
            with self._lock:
                self.misses += 1
            return MISS
        with self._lock:
            self.hits += 1
        return value

    # -- the result-bus protocol (the repro.exec queue backend) --------
    # These read/write by *raw key* and bypass the hit/miss counters:
    # the queue coordinator polls the store as its result bus, and bus
    # traffic must not inflate the cache accounting the CLI summary and
    # the CI warm-pass gate report.
    def contains(self, key: str) -> bool:
        """Whether an object for ``key`` is on disk (one stat, no read)."""
        return self._path(key).exists()

    def fetch(self, key: str) -> Any:
        """The value stored under raw ``key``, or :data:`MISS`.

        Unlike :meth:`load` this ignores ``refresh`` and the counters —
        it is the queue coordinator's collection read, not a cache
        consult.  Corrupt entries degrade to :data:`MISS` as usual.
        """
        try:
            with open(self._path(key), "rb") as handle:
                return pickle.loads(zlib.decompress(handle.read()))
        except FileNotFoundError:
            return MISS
        except Exception as error:
            log.warning(
                "result store: unreadable entry %s… (%s: %s)",
                key[:12], type(error).__name__, error,
            )
            return MISS

    def discard(self, key: str) -> bool:
        """Drop the object stored under raw ``key`` (manifest untouched;
        :meth:`entries` joins on the object file, so the entry vanishes).
        Used by ``--refresh`` queue runs to stop a stale bus entry from
        short-circuiting the recompute."""
        try:
            self._path(key).unlink()
        except OSError:
            return False
        return True

    def note(self, record: Dict[str, Any]) -> None:
        """Append an *event* record (lease reclaim, speculative dispatch)
        to the manifest.  Event records carry an ``event`` field and no
        ``key``, so :meth:`entries` skips them; :meth:`events` reads
        them back for accounting."""
        entry = dict(record)
        entry.setdefault("at", time.time())
        entry.pop("key", None)  # never collide with object entries
        with self._lock:
            with open(self._manifest, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(entry, sort_keys=True) + "\n")

    def events(self) -> List[Dict[str, Any]]:
        """All event records :meth:`note` appended, in manifest order."""
        try:
            lines = self._manifest.read_text(encoding="utf-8").splitlines()
        except OSError:
            return []
        out: List[Dict[str, Any]] = []
        for line in lines:
            try:
                entry = json.loads(line)
            except ValueError:
                continue  # torn append from a killed process
            if isinstance(entry, dict) and "event" in entry:
                out.append(entry)
        return out

    def put(
        self, cell: Any, value: Any, wall_ms: float = 0.0, status: str = "ok"
    ) -> str:
        """Persist ``cell``'s ``value``; returns the content key.

        The object file lands via write-temp-then-rename *before* the
        manifest line is appended, so a crash between the two leaves a
        valid (merely unlisted) entry, never a listed-but-broken one.
        """
        key = cell_key(cell)
        raw = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        blob = zlib.compress(raw)
        entry = {
            "key": key,
            "scenario": _scenario_of(cell),
            "cell": repr(tuple(cell.key)),
            "fn": cell.fn,
            "wall_ms": round(float(wall_ms), 3),
            "created_at": time.time(),
            "bytes": len(blob),
            "raw_bytes": len(raw),
            "status": status,
        }
        with self._lock:
            _atomic_write_bytes(self._path(key), blob)
            with open(self._manifest, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(entry, sort_keys=True) + "\n")
        return key

    # -- maintenance (the ``python -m repro.results`` surface) ---------
    def entries(self) -> List[Dict[str, Any]]:
        """One dict per object on disk, joined with its manifest line.

        The manifest is append-only (overwrites append a fresh line;
        last one wins) and may contain torn lines from a killed process
        — both are handled here.  Objects persisted without a manifest
        line (killed between write and append) appear with ``scenario
        "?"`` and mtime-derived ``created_at``.
        """
        by_key: Dict[str, Dict[str, Any]] = {}
        try:
            lines = self._manifest.read_text(encoding="utf-8").splitlines()
        except OSError:
            lines = []
        for line in lines:
            try:
                entry = json.loads(line)
            except ValueError:
                continue  # torn append from a killed process
            if isinstance(entry, dict) and "key" in entry:
                by_key[entry["key"]] = entry
        out: List[Dict[str, Any]] = []
        for path in sorted(self._objects.glob("*.pkl")):
            try:
                stat = path.stat()
            except OSError:
                continue
            entry = dict(
                by_key.get(
                    path.stem,
                    {
                        "key": path.stem,
                        "scenario": "?",
                        "cell": "?",
                        "fn": "?",
                        "wall_ms": 0.0,
                        "created_at": stat.st_mtime,
                        "status": "ok",
                    },
                )
            )
            entry["bytes"] = stat.st_size
            out.append(entry)
        out.sort(key=lambda e: (e.get("created_at", 0.0), e["key"]))
        return out

    def stats(self) -> Dict[str, Any]:
        """Aggregate counts for ``stats``: totals plus a per-scenario split."""
        entries = self.entries()
        per: Dict[str, Dict[str, float]] = {}
        for entry in entries:
            row = per.setdefault(
                entry["scenario"], {"entries": 0, "bytes": 0, "wall_ms": 0.0}
            )
            row["entries"] += 1
            row["bytes"] += entry["bytes"]
            row["wall_ms"] += entry.get("wall_ms", 0.0)
        return {
            "dir": str(self.root),
            "format": STORE_TAG,
            "entries": len(entries),
            "bytes": sum(e["bytes"] for e in entries),
            "wall_ms_saved_per_warm_run": round(
                sum(e.get("wall_ms", 0.0) for e in entries), 3
            ),
            "oldest": min((e["created_at"] for e in entries), default=None),
            "newest": max((e["created_at"] for e in entries), default=None),
            "scenarios": {name: per[name] for name in sorted(per)},
        }

    def _sweep_tmp(self) -> int:
        """Remove stray ``*.tmp*`` files a killed writer left behind."""
        removed = 0
        for path in self._objects.glob("*.tmp*"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def _rewrite_manifest(self, keep: List[Dict[str, Any]]) -> None:
        blob = "".join(json.dumps(e, sort_keys=True) + "\n" for e in keep)
        _atomic_write_bytes(self._manifest, blob.encode("utf-8"))

    def gc(
        self,
        older_than_s: Optional[float] = None,
        max_bytes: Optional[int] = None,
    ) -> int:
        """Drop entries by age and/or shrink the store to a byte budget.

        ``older_than_s`` removes entries older than that many seconds;
        ``max_bytes`` then evicts the *oldest* surviving entries until
        the remaining on-disk bytes fit the budget (``entries()`` sorts
        oldest-first, so eviction order is deterministic).  Either
        criterion may be used alone.  Returns the number removed.
        """
        now = time.time()
        kept: List[Dict[str, Any]] = []
        removed = 0
        for entry in self.entries():
            if (
                older_than_s is not None
                and now - float(entry.get("created_at", 0.0)) > older_than_s
            ):
                try:
                    self._path(entry["key"]).unlink()
                except OSError:
                    pass
                removed += 1
            else:
                kept.append(entry)
        if max_bytes is not None:
            total = sum(int(entry["bytes"]) for entry in kept)
            survivors: List[Dict[str, Any]] = []
            for entry in kept:
                if total > max_bytes:
                    try:
                        self._path(entry["key"]).unlink()
                    except OSError:
                        pass
                    total -= int(entry["bytes"])
                    removed += 1
                else:
                    survivors.append(entry)
            kept = survivors
        # Event records (:meth:`note`) have no object to age or evict:
        # gc keeps every one; only :meth:`clear` drops them.
        self._rewrite_manifest(self.events() + kept)
        self._sweep_tmp()
        return removed

    def clear(self) -> int:
        """Drop every entry (the ``FORMAT`` tag stays); returns the count."""
        removed = len(self.entries())
        self._wipe()
        self._sweep_tmp()
        return removed


# ----------------------------------------------------------------------
# Mode/dir plumbing shared by run_scenario and the CLIs
# ----------------------------------------------------------------------
def resolve_dir(cache_dir: Optional[Any] = None) -> Path:
    """The store directory: explicit arg > ``REPRO_RESULTS_DIR`` > default."""
    if cache_dir:
        return Path(cache_dir)
    return Path(os.environ.get(DIR_ENV) or DEFAULT_DIR)


def resolve_mode(
    no_cache: bool = False,
    refresh: bool = False,
    explicit_dir: Optional[Any] = None,
    default: str = "auto",
) -> str:
    """Fold CLI flags and the ``REPRO_CACHE`` env var into a cache mode.

    Precedence: ``--no-cache`` > ``--refresh`` > an explicit
    ``--cache-dir`` (implies ``auto``) > ``REPRO_CACHE`` > ``default``.
    """
    if no_cache:
        return "off"
    if refresh:
        return "refresh"
    if explicit_dir:
        return "auto"
    mode = (os.environ.get(MODE_ENV) or default).strip().lower()
    if mode not in ("auto", "off", "refresh"):
        raise ValueError(
            f"invalid {MODE_ENV}={mode!r}; pick auto, off or refresh"
        )
    return mode


def open_store(
    mode: Optional[str] = "auto", cache_dir: Optional[Any] = None
) -> Optional[ResultStore]:
    """A :class:`ResultStore` for ``mode``, or ``None`` when caching is off."""
    if mode in (None, "off"):
        return None
    if mode not in ("auto", "refresh"):
        raise ValueError(f"invalid cache mode {mode!r}; pick auto, off or refresh")
    return ResultStore(resolve_dir(cache_dir), refresh=(mode == "refresh"))
