"""Simulated cloud storage (the paper's configurable S3/ZooKeeper role).

The eManager is stateless: the context mapping, the ownership network
snapshot, migration write-ahead records and context snapshots all live
here (§5.1, §5.3).  The model charges a per-operation latency plus a
size-dependent transfer time, and keeps everything durably in plain
dicts so tests (and eManager crash-recovery) can inspect state.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..sim.kernel import Signal, Simulator

__all__ = ["CloudStorage"]


class CloudStorage:
    """A durable, highly available key-value store with simulated latency."""

    #: Per-operation latencies (ms) and the transfer speed (Gbit/s).
    READ_LATENCY_MS = 0.8
    WRITE_LATENCY_MS = 1.6
    GBPS = 1.0

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._data: Dict[str, Any] = {}
        # Size (as charged at write time) of each durable key, so reads
        # can be priced by what is actually stored (see :meth:`read`).
        self._sizes: Dict[str, int] = {}
        self.reads = 0
        self.writes = 0
        # Bytes written per top-level key namespace ("checkpoint",
        # "migration", "mapping", ...): the storage-cost breakdown the
        # availability experiments report (full vs delta checkpoints).
        self.bytes_written_by_prefix: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Asynchronous (simulated-latency) API
    # ------------------------------------------------------------------
    def write(self, key: str, value: Any, size_bytes: int = 256) -> Signal:
        """Durably store ``value``; the signal fires once persisted.

        The value is applied at completion time (not at call time), so a
        reader racing the write observes the old value — like S3.
        """
        signal = self.sim.signal(name=f"storage-write:{key}")
        delay = self.WRITE_LATENCY_MS + self._transfer_ms(size_bytes)

        def apply() -> None:
            self._data[key] = value
            self._sizes[key] = size_bytes
            self.writes += 1
            prefix = key.split("/", 1)[0]
            self.bytes_written_by_prefix[prefix] = (
                self.bytes_written_by_prefix.get(prefix, 0) + size_bytes
            )
            signal.succeed(None)

        self.sim.schedule(delay, apply)
        return signal

    def read(self, key: str) -> Signal:
        """Fetch ``key``; the signal fires with the value (or None).

        The transfer is priced by the size the key was last written with
        (what a real store would actually ship; 64 bytes for a miss).
        """
        size_bytes = self._sizes.get(key, 64)
        signal = self.sim.signal(name=f"storage-read:{key}")
        delay = self.READ_LATENCY_MS + self._transfer_ms(size_bytes)

        def finish() -> None:
            self.reads += 1
            signal.succeed(self._data.get(key))

        self.sim.schedule(delay, finish)
        return signal

    def delete(self, key: str) -> Signal:
        """Remove ``key``; the signal fires once applied."""
        signal = self.sim.signal(name=f"storage-delete:{key}")

        def apply() -> None:
            self._data.pop(key, None)
            self._sizes.pop(key, None)
            self.writes += 1
            signal.succeed(None)

        self.sim.schedule(self.WRITE_LATENCY_MS, apply)
        return signal

    def bytes_written_for(self, prefix: str) -> int:
        """Total bytes written under a top-level key namespace."""
        return self.bytes_written_by_prefix.get(prefix.rstrip("/"), 0)

    def _transfer_ms(self, size_bytes: int) -> float:
        return (size_bytes * 8) / (self.GBPS * 1e6)

    # ------------------------------------------------------------------
    # Synchronous inspection (tests, recovery bootstrap)
    # ------------------------------------------------------------------
    def peek(self, key: str) -> Any:
        """Current durable value without simulated latency: for tests,
        and for the reads the model prices as free — WAL and fencing-epoch
        adoption at failover, delta seq seeding, the WAL append's epoch
        compare-and-set and recovery's read of a step-down flush."""
        return self._data.get(key)

    def keys_with_prefix(self, prefix: str) -> List[str]:
        """All durable keys starting with ``prefix`` (tests/recovery)."""
        return sorted(k for k in self._data if k.startswith(prefix))
