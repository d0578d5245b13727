"""The massive-tier application: a million leaf contexts, bulk-registered.

A three-level tree — one ``Region`` root, a shard layer (one ``Shard``
per server by default) and a huge population of single-parent leaf
contexts — sized so the interesting cost is per-context *bookkeeping*,
not per-context behaviour.  Leaves are registered through
:meth:`~repro.core.runtime.RuntimeBase.create_contexts_bulk`: the whole
population is one record (a cid prefix, a count, the servers and the
shards, each cycled round-robin over the leaves), and a leaf gets its
placement entry and its Python instance only on first touch, its lock
only while an event holds or waits for it; its ownership answers come
from the record throughout.  A run that samples a few hundred thousand
ops over a million registered players therefore builds a few hundred
thousand object graphs, never a million, and an untouched leaf costs
nothing.

Two flavors share the builder so the game- and TPC-C-shaped scenarios
(``massive_game`` / ``massive_tpcc``, docs/SCENARIOS.md) stay honest
cousins of the paper's applications:

* ``"game"`` — ``MassivePlayer`` leaves with an exclusive ``tap`` and a
  read-only ``peek`` (the Listing 1 player, stripped to its hot path);
* ``"tpcc"`` — ``MassiveTerminal`` leaves with ``new_order`` /
  ``order_status`` under district shards.

Because every leaf has exactly one parent, its dominator under the AEON
protocol is itself: an event on a leaf locks only that leaf, so the
tree sustains the full fleet's parallelism at any population size.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from random import Random
from typing import List, Sequence, Tuple

from ..core.context import ContextClass, ContextRef, cost, readonly
from ..core.events import CallSpec
from ..core.runtime import RuntimeBase
from ..sim.cluster import Server

__all__ = [
    "Region",
    "Shard",
    "MassivePlayer",
    "MassiveTerminal",
    "MassiveConfig",
    "MassiveApp",
    "build_massive",
    "run_checksum",
    "MASSIVE_FLAVORS",
]


class Region(ContextClass):
    """The tree root; exists so shards have a common owner."""

    size_bytes = 65536

    def __init__(self, name: str = "region") -> None:
        self.name = name


class Shard(ContextClass):
    """A mid-tier shard: the direct parent of a slice of the leaves."""

    size_bytes = 65536

    def __init__(self, shard_id: int = 0) -> None:
        self.shard_id = shard_id
        self.touched = 0

    @cost(0.6)
    def bump(self) -> int:
        """Count a shard-level touch (exclusive)."""
        self.touched += 1
        return self.touched


class MassivePlayer(ContextClass):
    """A game-flavor leaf: score accumulation plus a read-only probe.

    ``__init__`` takes no arguments — a bulk-registered leaf is built
    lazily on first touch (see ``create_contexts_bulk``), so identity
    lives in the cid, not in constructor state.
    """

    size_bytes = 512

    def __init__(self) -> None:
        self.score = 0
        self.taps = 0

    @cost(0.3)
    def tap(self, delta: int) -> int:
        """Add ``delta`` to the player's score (exclusive)."""
        self.score += delta
        self.taps += 1
        return self.score

    @readonly
    @cost(0.2)
    def peek(self) -> int:
        """Current score (read-only)."""
        return self.score

    def digest(self) -> str:
        """Deterministic state line for the run checksum."""
        return f"{self.score}|{self.taps}"


class MassiveTerminal(ContextClass):
    """A TPC-C-flavor leaf: order submission plus a status probe."""

    size_bytes = 512

    def __init__(self) -> None:
        self.orders = 0
        self.quantity = 0

    @cost(0.5)
    def new_order(self, qty: int) -> int:
        """Place an order of ``qty`` units (exclusive)."""
        self.orders += 1
        self.quantity += qty
        return self.orders

    @readonly
    @cost(0.2)
    def order_status(self) -> int:
        """Orders placed so far (read-only)."""
        return self.orders

    def digest(self) -> str:
        """Deterministic state line for the run checksum."""
        return f"{self.orders}|{self.quantity}"


@dataclass(frozen=True)
class _Flavor:
    """Naming and op shape of one massive-tier flavor."""

    root: str
    shard_prefix: str
    leaf_prefix: str
    leaf_cls: type
    write_method: str
    write_tag: str
    read_method: str
    read_tag: str


MASSIVE_FLAVORS = {
    "game": _Flavor(
        root="arena",
        shard_prefix="zone",
        leaf_prefix="p",
        leaf_cls=MassivePlayer,
        write_method="tap",
        write_tag="tap",
        read_method="peek",
        read_tag="peek",
    ),
    "tpcc": _Flavor(
        root="exchange",
        shard_prefix="district",
        leaf_prefix="t",
        leaf_cls=MassiveTerminal,
        write_method="new_order",
        write_tag="new_order",
        read_method="order_status",
        read_tag="order_status",
    ),
}


@dataclass
class MassiveConfig:
    """Deployment and op-mix parameters for a massive-tier run."""

    contexts: int = 1_000_000
    shards: int = 0  # 0 -> one per server
    flavor: str = "game"  # "game" | "tpcc"
    #: Fraction of client ops that are read-only probes.
    p_read: float = 0.15

    def validate(self) -> None:
        """Sanity-check sizes and the mix."""
        if self.contexts < 1:
            raise ValueError("need at least one leaf context")
        if self.flavor not in MASSIVE_FLAVORS:
            raise ValueError(
                f"unknown massive flavor {self.flavor!r}; "
                f"pick from {tuple(MASSIVE_FLAVORS)}"
            )
        if not 0.0 <= self.p_read <= 1.0:
            raise ValueError(f"p_read must be in [0, 1], got {self.p_read}")


@dataclass
class MassiveApp:
    """Handles to a built massive deployment plus the client-op sampler."""

    runtime: RuntimeBase
    config: MassiveConfig
    region: ContextRef
    shards: List[ContextRef] = field(default_factory=list)

    def sample_op(self, rng: Random) -> Tuple[CallSpec, str]:
        """Draw one client operation ``(spec, tag)``.

        CallSpecs are built straight from the leaf cid, formatted from
        the drawn index as the population names it (``p-17``): no string
        or ContextRef per leaf is kept, matching the one-record
        registration.  The op's ``submit`` makes a leaf's first touch.
        """
        flavor = MASSIVE_FLAVORS[self.config.flavor]
        cid = f"{flavor.leaf_prefix}-{rng.randrange(self.config.contexts)}"
        if rng.random() < self.config.p_read:
            return CallSpec(cid, flavor.read_method, (), {}), flavor.read_tag
        amount = rng.randrange(1, 10)
        return CallSpec(cid, flavor.write_method, (amount,), {}), flavor.write_tag


def build_massive(
    runtime: RuntimeBase,
    config: MassiveConfig,
    servers: Sequence[Server],
) -> MassiveApp:
    """Construct the massive tree: root + shards eagerly, leaves in bulk.

    Shards round-robin over ``servers``; leaf ``i``'s parent is shard
    ``i % n_shards`` and its placement is ``servers[i % n_servers]``,
    so with the default one-shard-per-server layout every leaf is
    co-located with its parent shard.
    """
    config.validate()
    if not servers:
        raise ValueError("no servers available to host the massive tree")
    flavor = MASSIVE_FLAVORS[config.flavor]
    n_shards = config.shards or len(servers)
    region = runtime.create_context(
        Region, server=servers[0], name=flavor.root, args=(flavor.root,)
    )
    app = MassiveApp(runtime=runtime, config=config, region=region)
    for i in range(n_shards):
        app.shards.append(
            runtime.create_context(
                Shard,
                owners=[region],
                server=servers[i % len(servers)],
                name=f"{flavor.shard_prefix}-{i}",
                args=(i,),
            )
        )
    # The shards are the population's owner cycle; one that outnumbers
    # the leaves would own no leaf with its tail.
    runtime.create_contexts_bulk(
        flavor.leaf_cls, f"{flavor.leaf_prefix}-", config.contexts, servers,
        parents=app.shards[: config.contexts],
    )
    return app


def run_checksum(runtime: RuntimeBase, app: MassiveApp) -> str:
    """SHA-256 digest of a finished massive run's observable state.

    Hashes every *materialized* leaf's state in sorted-cid order plus
    the total completion count — cheap at any registered population
    (untouched leaves have no state by construction) yet sensitive to
    any reordering, lost op or double-apply.  Two runs of the same
    seeded scenario must produce identical digests.
    """
    flavor = MASSIVE_FLAVORS[app.config.flavor]
    prefix = f"{flavor.leaf_prefix}-"
    instances = runtime.instances
    # One line per leaf, then the count, newline-separated, fed as read.
    digest = hashlib.sha256()
    for cid in sorted(instances):
        if cid.startswith(prefix):
            digest.update(f"{cid}|{instances[cid].digest()}\n".encode())
    completed = runtime.latency.count_between(0.0, runtime.sim.now + 1.0)
    digest.update(str(completed).encode())
    return digest.hexdigest()
