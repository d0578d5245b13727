"""Named deterministic random-number streams.

Every stochastic element of an experiment (client think times, workload
mix, payload sizes, ...) draws from its own named stream so that adding a
new consumer of randomness never perturbs existing ones.  This is what
makes every figure in EXPERIMENTS.md exactly reproducible.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict

__all__ = ["RngRegistry"]


class RngRegistry:
    """A factory of independent, seeded :class:`random.Random` streams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it deterministically.

        The stream seed is derived from the registry seed and the name via
        SHA-256, so streams are independent of creation order.
        """
        if name not in self._streams:
            digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
            self._streams[name] = random.Random(int.from_bytes(digest[:8], "big"))
        return self._streams[name]
