"""The million-context core: bulk registration, sampling, massive tier.

* bulk registration through ``create_contexts_bulk``: all-or-nothing
  validation, lazy materialisation on first touch, ``context_count``
  and the bytes a registered leaf retains;
* the :class:`~repro.sim.metrics.LatencyRecorder` reservoir: exact
  aggregates, bounded percentile error vs an exact recorder on seeded
  streams, deterministic resampling, and cross-mode byte-identity below
  the threshold (the golden quick figures never leave exact mode);
* the massive-tier application and its registered scenarios; and
* result-store compression plus the ``gc --max-bytes`` byte budget.
"""

import argparse
import json
import pickle
import tracemalloc
import zlib
from random import Random

import pytest

from repro.apps.game import GameConfig, build_game
from repro.apps.massive import MassiveConfig, build_massive, run_checksum
from repro.core.context import ContextClass, ContextRef
from repro.core.errors import UnknownContextError
from repro.core.ownership import OwnershipNetwork
from repro.exec import Cell
from repro.harness.runner import make_testbed, run_closed_loop
from repro.harness.scenarios import (
    PAPER_FIGURES, SCALES, _massive_run, get_scenario, list_scenarios,
)
from repro.results import MISS, ResultStore
from repro.results.__main__ import parse_size
from repro.sim.metrics import DEFAULT_SAMPLE_THRESHOLD, LatencyRecorder
from repro.workloads.generators import ClosedLoopClients


# ----------------------------------------------------------------------
# LatencyRecorder: reservoir mode
# ----------------------------------------------------------------------
def _stream(n, seed=0):
    """Seeded completions in end-time order, as a simulator records them."""
    rng = Random(seed)
    out = []
    for i in range(n):
        start = i * 0.01
        out.append((start, start + rng.expovariate(1.0 / 5.0), "op"))
    out.sort(key=lambda record: record[1])
    return out


def _feed(recorder, stream):
    for start, end, tag in stream:
        recorder.record(start, end, tag)
    return recorder


def test_recorder_stays_exact_below_threshold():
    recorder = _feed(LatencyRecorder(sample_threshold=1000), _stream(999))
    assert recorder.sampling is False
    assert len(recorder) == 999
    assert len(recorder.latencies()) == 999  # every sample kept


def test_cross_mode_byte_identity_below_threshold():
    # The default threshold must not perturb sub-threshold metrics: a
    # recorder that can never sample answers byte-identically, which is
    # why the golden quick figures are safe at the default.
    stream = _stream(5000)
    default = _feed(LatencyRecorder(), stream)
    unbounded = _feed(LatencyRecorder(sample_threshold=2**62), stream)
    assert default.sampling is False

    def fingerprint(rec):
        return json.dumps(
            {
                "count": rec.count(),
                "mean": rec.mean_latency(),
                "p50": rec.percentile_latency(50.0),
                "p90": rec.percentile_latency(90.0),
                "p99": rec.percentile_latency(99.0),
                "window": rec.latencies_between(10.0, 40.0),
            },
            sort_keys=True,
        )

    assert fingerprint(default) == fingerprint(unbounded)


def test_reservoir_keeps_exact_aggregates():
    stream = _stream(30_000)
    sampled = _feed(LatencyRecorder(sample_threshold=2000, reservoir_size=512), stream)
    assert sampled.sampling is True
    assert len(sampled) == 30_000  # total count stays exact
    assert sampled.count() == 30_000
    exact_mean = sum(e - s for s, e, _t in stream) / len(stream)
    assert sampled.mean_latency() == pytest.approx(exact_mean, rel=1e-12)
    # The reservoir itself is bounded.
    assert len(sampled.samples) == 512
    # End times stay exact, so windowed counts and rates match an exact
    # recorder's (they were scaled reservoir estimates once).
    exact = _feed(LatencyRecorder(sample_threshold=2**62), stream)
    for since in (0.0, 50.0, 123.4, 299.0):
        assert sampled.count(since) == exact.count(since)
    for lo, hi in ((10.0, 40.0), (0.0, 1e9), (100.5, 250.25)):
        assert sampled.count_between(lo, hi) == exact.count_between(lo, hi)
    for window, horizon in ((25.0, 300.0), (7.5, 100.0)):
        rates = sampled.windowed_rate(window, horizon).points
        assert rates == exact.windowed_rate(window, horizon).points


def test_reservoir_percentiles_within_error_bounds():
    stream = _stream(60_000, seed=3)
    exact = _feed(LatencyRecorder(sample_threshold=2**62), stream)
    sampled = _feed(
        LatencyRecorder(sample_threshold=1000, reservoir_size=8192), stream
    )
    assert not exact.sampling and sampled.sampling
    for pct in (50.0, 90.0, 99.0):
        truth = exact.percentile_latency(pct)
        estimate = sampled.percentile_latency(pct)
        assert estimate == pytest.approx(truth, rel=0.10), pct


def test_reservoir_is_deterministic():
    stream = _stream(20_000, seed=5)
    a = _feed(LatencyRecorder(sample_threshold=500, reservoir_size=256), stream)
    b = _feed(LatencyRecorder(sample_threshold=500, reservoir_size=256), stream)
    assert a.samples == b.samples
    assert a.percentile_latency(99.0) == b.percentile_latency(99.0)


def test_quick_figure_runs_never_leave_exact_mode():
    # A representative quick-tier cell: completion counts sit orders of
    # magnitude under the switchover, so golden figures stay exact.
    with make_testbed("aeon", 2, seed=0) as testbed:
        app = build_game(
            testbed.runtime, GameConfig(rooms=2), "aeon", servers=testbed.servers
        )
        result = run_closed_loop(
            testbed, "aeon", app.sample_op, 24,
            think_ms=1.0, duration_ms=400.0, warmup_ms=100.0, drain_ms=2000.0,
        )
        recorder = testbed.runtime.latency
        assert recorder.sampling is False
        assert 0 < len(recorder) < DEFAULT_SAMPLE_THRESHOLD
    assert result.completed > 0


# ----------------------------------------------------------------------
# Massive tier: bulk registration, lazy materialization, determinism
# ----------------------------------------------------------------------
def test_massive_config_validation():
    with pytest.raises(ValueError):
        MassiveConfig(contexts=0).validate()
    with pytest.raises(ValueError):
        MassiveConfig(flavor="nope").validate()
    with pytest.raises(ValueError):
        MassiveConfig(p_read=1.5).validate()


def _mini_massive(flavor="game", seed=7, contexts=500):
    testbed = make_testbed("aeon", 4, seed=seed)
    app = build_massive(
        testbed.runtime, MassiveConfig(contexts=contexts, flavor=flavor),
        testbed.servers,
    )
    clients = ClosedLoopClients(
        testbed.runtime, app.sample_op, n_clients=16, think_ms=2.0,
        rng=testbed.rng, stop_at_ms=300.0,
    )
    clients.start()
    testbed.sim.run(until=800.0)
    return testbed, app


def test_bulk_registration_is_lazy():
    testbed = make_testbed("aeon", 4, seed=0)
    app = build_massive(
        testbed.runtime, MassiveConfig(contexts=200), testbed.servers
    )
    runtime = testbed.runtime
    # 200 leaves + 1 region + 4 shards registered; only the eager 5
    # exist as Python objects.
    assert runtime.context_count() == 205
    assert len(runtime.instances) == 5
    assert len(app.shards) == 4
    # First touch materializes exactly the touched leaf.
    player = runtime.instance_of("p-7")
    assert player.score == 0 and player.taps == 0
    assert runtime.instance_of("p-7") is player
    assert len(runtime.instances) == 6
    assert runtime.context_count() == 205  # materialization adds nothing
    assert runtime.placement["p-7"] in {s.name for s in testbed.servers}


def test_bulk_rejects_duplicate_cids():
    testbed = make_testbed("aeon", 2, seed=0)
    build_massive(testbed.runtime, MassiveConfig(contexts=50), testbed.servers)
    with pytest.raises(ValueError):
        testbed.runtime.create_contexts_bulk(
            type(testbed.runtime.instance_of("p-0")), ["p-0"], testbed.servers
        )


def _registry_state(runtime, servers):
    """Everything a context registration writes."""
    return (
        list(runtime.instances), list(runtime.placement), list(runtime.locks),
        runtime.ownership.snapshot(), runtime.context_count(),
        [server.context_count for server in servers],
    )


def test_bulk_rejects_a_bad_batch_untouched():
    """All or nothing: a batch that fails validation registers nothing."""
    testbed = make_testbed("aeon", 2, seed=0)
    app = build_massive(testbed.runtime, MassiveConfig(contexts=10), testbed.servers)
    runtime, leaf_cls = testbed.runtime, type(testbed.runtime.instance_of("p-0"))
    shard = app.shards[0]
    before = _registry_state(runtime, testbed.servers)
    count_before = runtime.context_count()
    ghost = ContextRef("nobody", "Shard")
    for cids, parents, error in (
        (["a", "b", "a", "c"], [shard] * 4, ValueError),   # repeated in batch
        (["a", "p-3", "b"], [shard] * 3, ValueError),       # already registered
        (["a", "b"], [shard, ghost], UnknownContextError),  # unknown parent
        (["a", "b", "c"], [shard], ValueError),             # misaligned parents
    ):
        with pytest.raises(error):
            runtime.create_contexts_bulk(leaf_cls, cids, testbed.servers, parents=parents)
        assert _registry_state(runtime, testbed.servers) == before
    runtime.create_contexts_bulk(leaf_cls, ["a", "b"], testbed.servers, parents=[shard, None])
    assert runtime.context_count() == count_before + 2
    assert runtime.instance_of("b").score == 0
    assert runtime.ownership.parents("a") == {shard.cid}


class _Other(ContextClass):
    pass


def test_create_context_rejects_a_bulk_registered_cid_untouched():
    """A bulk leaf without an instance is registered: its cid is taken."""
    testbed = make_testbed("aeon", 2, seed=0)
    build_massive(testbed.runtime, MassiveConfig(contexts=10), testbed.servers)
    runtime = testbed.runtime
    before = _registry_state(runtime, testbed.servers)
    with pytest.raises(ValueError):
        runtime.create_context(_Other, name="p-3")
    assert _registry_state(runtime, testbed.servers) == before
    assert type(runtime.instance_of("p-3")).__name__ == "MassivePlayer"


def test_create_context_with_an_unknown_owner_leaves_nothing_behind():
    testbed = make_testbed("aeon", 2, seed=0)
    runtime = testbed.runtime
    before = _registry_state(runtime, testbed.servers)
    with pytest.raises(UnknownContextError):
        runtime.create_context(_Other, owners=[ContextRef("ghost", "Other")], name="a")
    assert _registry_state(runtime, testbed.servers) == before


def test_context_count_on_a_partly_materialized_population():
    testbed = make_testbed("aeon", 4, seed=0)
    build_massive(testbed.runtime, MassiveConfig(contexts=300), testbed.servers)
    runtime = testbed.runtime
    leaf_cls = type(runtime.instance_of("p-0"))
    runtime.create_contexts_bulk(leaf_cls, [f"q-{i}" for i in range(50)], testbed.servers)
    for cid in ("p-1", "p-1", "p-299", "q-0", "q-49", "q-7"):
        runtime.instance_of(cid)
    # The definition: every instance plus every placed non-virtual cid
    # that has none yet.
    lazy = sum(
        1
        for cid in runtime.placement
        if cid not in runtime.instances and not runtime.ownership.is_virtual(cid)
    )
    assert lazy == 350 - 6
    assert runtime.context_count() == len(runtime.instances) + lazy == 355


def test_ownership_bytes_per_bulk_leaf():
    """A bulk-registered single-owner leaf is one map entry plus set
    memberships (measured 165–230 B); four sets of its own were ≈1.1 KB."""
    network = OwnershipNetwork()
    network.add_context("region")
    shards = [f"s-{i}" for i in range(8)]
    for shard in shards:
        network.add_context(shard, parents=["region"])
    cids = [f"p-{i}" for i in range(20_000)]
    owners = [shards[i % 8] for i in range(20_000)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        network.add_leaves(cids, owners)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(network) == 20_009 and network.dominator("p-19999") == "p-19999"
    assert retained / 20_000 < 400


def test_bytes_per_registered_untouched_leaf():
    """What ``build_massive`` retains per leaf nobody has touched: the cid
    string, a placement entry, a lazy-class entry and the compact
    ownership leaf — 433 B measured at 20 k leaves.  The bound is
    measured x 1.15: one more per-leaf dict entry (~80 B) fails here."""
    count = 20_000
    testbed = make_testbed("aeon", 4, seed=0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        build_massive(testbed.runtime, MassiveConfig(contexts=count), testbed.servers)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(testbed.runtime.instances) == 5
    assert retained / count <= 498


@pytest.mark.parametrize("flavor, completed, checksum", [
    ("game", 55985, "41ab5859789d8657842937919f54236500f6ff76898100d8c59d8c19fffe9950"),
    ("tpcc", 54377, "4b5c75616ba858aa0b941388e3f18afe569958d1163d619fb808cbccd96e6c3d"),
])
def test_massive_quick_checksums_pinned(flavor, completed, checksum):
    """Seed-0 quick runs, recorded before leaves went compact (PR 12):
    how ownership is stored must not move a single completion."""
    cell = _massive_run(flavor, "quick", 0)
    assert cell["contexts"] == 100_033 and cell["errors"] == 0
    assert (cell["completed"], cell["checksum"]) == (completed, checksum)


def test_sample_op_mix_and_determinism():
    testbed = make_testbed("aeon", 2, seed=0)
    app = build_massive(
        testbed.runtime, MassiveConfig(contexts=100, p_read=0.0), testbed.servers
    )
    def draw():
        rng = Random(3)
        return [
            (spec.target, spec.method, spec.args, tag)
            for spec, tag in (app.sample_op(rng) for _ in range(5))
        ]

    ops = draw()
    assert ops == draw()  # seeded -> same
    assert all(tag == "tap" for *_call, tag in ops)  # p_read=0 -> writes only
    app.config.p_read = 1.0
    spec, tag = app.sample_op(Random(3))
    assert tag == "peek" and spec.method == "peek" and spec.args == ()


def test_mini_massive_run_is_deterministic():
    testbed_a, app_a = _mini_massive(seed=7)
    checksum_a = run_checksum(testbed_a.runtime, app_a)
    testbed_b, app_b = _mini_massive(seed=7)
    assert run_checksum(testbed_b.runtime, app_b) == checksum_a
    # The run did real work but only materialized what it touched.
    runtime = testbed_a.runtime
    assert runtime.events_completed > 0 and runtime.events_failed == 0
    assert 5 < len(runtime.instances) <= 505
    assert runtime.context_count() == 505
    # A different seed produces different observable state.
    testbed_c, app_c = _mini_massive(seed=8)
    assert run_checksum(testbed_c.runtime, app_c) != checksum_a


def test_mini_massive_tpcc_flavor():
    testbed, app = _mini_massive(flavor="tpcc", seed=7)
    checksum = run_checksum(testbed.runtime, app)
    terminal_cids = [c for c in testbed.runtime.instances if c.startswith("t-")]
    assert terminal_cids  # some terminals materialized
    testbed_b, app_b = _mini_massive(flavor="tpcc", seed=7)
    assert run_checksum(testbed_b.runtime, app_b) == checksum


def test_massive_scenarios_registered():
    for name in ("massive_game", "massive_tpcc"):
        assert name in list_scenarios()
        assert name not in PAPER_FIGURES  # they are --scenario only
        assert get_scenario(name).output == "massive"
    assert SCALES["massive"].massive_contexts >= 1_000_000
    # The quick smoke tier stays CI-sized.
    assert SCALES["quick"].massive_contexts <= 100_000


# ----------------------------------------------------------------------
# Result store: compression and the gc byte budget
# ----------------------------------------------------------------------
def _cell(i):
    return Cell((i,), "m:f", {"i": i})


def test_store_compresses_on_disk(tmp_path):
    store = ResultStore(tmp_path / "store")
    value = {"series": [float(i % 17) for i in range(5000)]}
    store.put(_cell(0), value, wall_ms=1.0)
    assert store.load(_cell(0)) == value
    entry = store.entries()[0]
    assert entry["raw_bytes"] > entry["bytes"]  # repetitive data shrinks
    blob = (store.root / "objects" / f"{entry['key']}.pkl").read_bytes()
    assert pickle.loads(zlib.decompress(blob)) == value


def test_gc_max_bytes_evicts_oldest_first(tmp_path):
    store = ResultStore(tmp_path / "store")
    for i in range(5):
        store.put(_cell(i), list(range(i * 1000, i * 1000 + 1000)))
    entries = store.entries()  # oldest first
    assert [e["cell"] for e in entries] == [str((i,)) for i in range(5)]
    budget = sum(e["bytes"] for e in entries[-2:])
    assert store.gc(max_bytes=budget) == 3
    assert store.load(_cell(0)) is MISS and store.load(_cell(2)) is MISS
    assert store.load(_cell(3)) == list(range(3000, 4000))
    assert store.load(_cell(4)) == list(range(4000, 5000))
    assert store.gc(max_bytes=budget) == 0  # already within budget


def test_parse_size():
    assert parse_size("123") == 123
    assert parse_size("512K") == 512 * 1024
    assert parse_size("256M") == 256 * 1024**2
    assert parse_size("2G") == 2 * 1024**3
    assert parse_size("1kb") == 1024  # trailing 'b' tolerated
    with pytest.raises(argparse.ArgumentTypeError):
        parse_size("lots")
    with pytest.raises(argparse.ArgumentTypeError):
        parse_size("-5")
