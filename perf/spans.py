"""Tracing for the benchmark's traced run: spans and profiler buckets.

Spans are recorded by the benchmark's own files around each call they
make into a layer (plan, each cell, each probe, each executor drain,
each store batch); spans inside the program are a later change.  They
are held in memory and written as JSONL when the run ends.  With
tracing off every ``span()`` is an empty context, so the end-to-end
numbers never pay for it.
"""

from __future__ import annotations

import contextlib
import json
import os
import pstats
import time
from typing import Any, Dict, Iterator, List, Optional

#: The layers: ``src/repro/`` packages, in stack order.
PACKAGES = (
    "sim", "core", "baselines", "apps", "workloads",
    "elasticity", "faults", "harness", "exec", "results",
)

#: Modules reported on their own, because a later change is likely to
#: move one of them without moving the rest of its package.
MODULES = (
    "sim.kernel", "sim.queues", "sim.network", "sim.metrics",
    "core.runtime", "core.protocol", "core.locking", "core.ownership",
    "core.context", "core.table", "core.events",
    "elasticity.emanager", "elasticity.migration", "elasticity.snapshot",
    "elasticity.storage",
)

class Spans:
    """In-memory span log; ``enabled=False`` makes every span a no-op."""

    def __init__(self, enabled: bool, workload: str) -> None:
        self.enabled = enabled
        self.workload = workload
        self.pass_id: Optional[str] = None
        self.rows: List[Dict[str, Any]] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        row = {
            "id": len(self.rows),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "pass": self.pass_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.rows.append(row)
        self._open.append(row["id"])
        try:
            yield
        finally:
            row["end"] = time.perf_counter()
            self._open.pop()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for row in self.rows:
                handle.write(json.dumps(row, sort_keys=True) + "\n")


def bucket_profile(profile: Any, repro_dir: str) -> Dict[str, float]:
    """Self time and call counts of a ``cProfile`` run, by repro layer.

    A function belongs to the package (and module) its source file sits
    in under ``repro_dir``; everything else — stdlib, builtins, the
    benchmark's own files — is ``other``.  ``calls`` counts every call
    (recursive ones too) and repeats exactly for a fixed seed;
    ``self_s`` is host time and does not.
    """
    self_s = {name: 0.0 for name in PACKAGES + MODULES + ("other",)}
    calls = {name: 0 for name in PACKAGES}
    prefix = repro_dir.rstrip(os.sep) + os.sep
    for (filename, _line, _fn), (_cc, ncalls, tottime, _ct, _callers) in (
        pstats.Stats(profile).stats.items()
    ):
        parts = (
            filename[len(prefix):].split(os.sep) if filename.startswith(prefix) else []
        )
        if len(parts) < 2 or parts[0] not in calls:
            self_s["other"] += tottime
            continue
        package = parts[0]
        module = f"{package}.{parts[1].removesuffix('.py')}"
        self_s[package] += tottime
        calls[package] += ncalls
        if module in self_s:
            self_s[module] += tottime
    out: Dict[str, float] = {f"{name}.self_s": value for name, value in self_s.items()}
    out.update({f"{name}.calls": value for name, value in calls.items()})
    return out
