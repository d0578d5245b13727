"""Persistent result store: content-addressed cell caching and resumable sweeps.

Every experiment cell in this repository is a pure function of its
payload — the expanded :class:`~repro.exec.Cell` carries a
dotted body path plus picklable kwargs (spec fields, scale, seed,
resolved overrides), and the determinism contract guarantees the same
payload computes the same value in any process at any time.  That makes
cell results *content-addressable*: hash the payload into a key, persist
the value under it, and any later invocation that expands to the same
cell can skip the simulation entirely.

This package owns that store (see docs/ARCHITECTURE.md § Result store):

* :func:`cell_key` — the stable content hash over ``(store/kernel
  version tag, cell.fn, canonicalized kwargs)``;
* :class:`ResultStore` — the on-disk store (default ``.repro_results/``,
  overridable via ``--cache-dir`` / ``REPRO_RESULTS_DIR``): atomic
  write-temp-then-rename object files plus an append-only JSONL
  manifest; corrupted or truncated entries are treated as cache misses
  and recomputed, never crashing a sweep;
* :func:`open_store` / :func:`resolve_mode` / :func:`resolve_dir` —
  the ``"auto" | "off" | "refresh"`` mode plumbing shared by
  :func:`~repro.harness.scenarios.run_scenario` and the experiments CLI;
* ``python -m repro.results`` — the maintenance CLI (``ls``, ``stats``,
  ``gc --older-than AGE``, ``clear``).

The execution layer (:mod:`repro.harness.runner`) consults the store
before dispatching cells and persists each result on completion, so an
interrupted ``--all`` resumes where it died and an edited sweep reuses
every untouched cell.  This package depends only on the standard
library; the harness calls down into it.
"""

from .store import (
    DEFAULT_DIR,
    DIR_ENV,
    FORMAT_VERSION,
    KERNEL_TAG,
    MISS,
    MODE_ENV,
    STORE_TAG,
    ResultStore,
    canonical,
    cell_key,
    open_store,
    resolve_dir,
    resolve_mode,
)

__all__ = [
    "DEFAULT_DIR",
    "DIR_ENV",
    "FORMAT_VERSION",
    "KERNEL_TAG",
    "MISS",
    "MODE_ENV",
    "STORE_TAG",
    "ResultStore",
    "canonical",
    "cell_key",
    "open_store",
    "resolve_dir",
    "resolve_mode",
]
