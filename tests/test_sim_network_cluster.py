"""Unit tests for the network transport and cluster model."""

import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.sim.cluster import (
    Cluster,
    INSTANCE_TYPES,
    M1_LARGE,
    M1_MEDIUM,
    M1_SMALL,
    M3_LARGE,
    Server,
)
from repro.sim.kernel import Simulator
from repro.sim.network import DeliveryError, Network


# ----------------------------------------------------------------------
# Network
# ----------------------------------------------------------------------
def test_send_delivers_after_latency():
    sim = Simulator()
    net = Network(sim, lan_ms=0.5)
    box = net.register("dst")
    net.register("src")
    net.send("src", "dst", {"k": 1}, size_bytes=0)
    sim.run()
    assert len(box) == 1
    message = box.items[0]
    assert message.payload == {"k": 1}
    assert sim.now == pytest.approx(0.5)


def test_same_host_latency_is_cheap():
    net = Network(Simulator(), lan_ms=0.25, same_host_ms=0.01)
    assert net.delay_ms("a", "a", size_bytes=0) == 0.01
    assert net.delay_ms("a", "b", size_bytes=0) == 0.25


def test_send_to_unknown_endpoint_raises():
    sim = Simulator()
    net = Network(sim)
    net.register("src")
    with pytest.raises(KeyError):
        net.send("src", "ghost", "payload")


def test_register_duplicate_rejected():
    sim = Simulator()
    net = Network(sim)
    net.register("a")
    with pytest.raises(ValueError):
        net.register("a")


def test_fifo_per_pair():
    sim = Simulator()
    net = Network(sim)
    box = net.register("dst")
    net.register("src")
    # A big message then a small one: the small one must not overtake.
    net.send("src", "dst", "big", size_bytes=10_000_000)
    net.send("src", "dst", "small", size_bytes=1)
    sim.run()
    assert [m.payload for m in box.items] == ["big", "small"]


def test_bandwidth_serializes_on_sender_egress():
    sim = Simulator()
    net = Network(sim, default_gbps=0.001)  # deliberately tiny pipe
    net.register("dst")
    net.register("src")
    one_mb = 1_000_000
    done1 = net.delay_signal("src", "dst", size_bytes=one_mb)
    done2 = net.delay_signal("src", "dst", size_bytes=one_mb)
    sim.run()
    # 1 MB at 0.001 Gbps = 8000 ms each; second waits for the first.
    assert done1.triggered and done2.triggered
    assert sim.now == pytest.approx(2 * 8000.0, rel=0.01)


def test_delay_signal_counts_traffic():
    sim = Simulator()
    net = Network(sim)
    net.register("a")
    net.register("b")
    net.delay_signal("a", "b", size_bytes=100)
    assert net.messages_sent == 1
    assert net.bytes_sent == 100


def test_unregister_drops_in_flight_silently():
    sim = Simulator()
    net = Network(sim)
    net.register("dst")
    net.register("src")
    net.send("src", "dst", "hello")
    net.unregister("dst")
    sim.run()  # no exception: the message is dropped
    assert not net.is_registered("dst")


# ----------------------------------------------------------------------
# Instance types and servers
# ----------------------------------------------------------------------
def test_instance_catalogue():
    assert set(INSTANCE_TYPES) == {"m1.small", "m1.medium", "m1.large", "m3.large"}
    assert M1_SMALL.cores == 1
    assert M1_LARGE.cores == 2
    assert M3_LARGE.speed > M1_SMALL.speed


def test_cpu_scaling_by_speed():
    assert M1_SMALL.cpu_ms(10.0) == pytest.approx(10.0)
    assert M1_MEDIUM.cpu_ms(10.0) == pytest.approx(5.0)


def test_server_execute_occupies_scaled_time():
    sim = Simulator()
    server = Server(sim, "s", M1_MEDIUM)

    def body():
        yield from server.cpu.use(server.itype.cpu_ms(10.0))

    sim.run_process(body())
    assert sim.now == pytest.approx(5.0)


def test_server_cores_parallelism():
    sim = Simulator()
    server = Server(sim, "s", M1_LARGE)  # 2 cores, speed 2

    def body():
        yield from server.cpu.use(server.itype.cpu_ms(10.0))

    for _ in range(4):
        sim.process(body())
    sim.run()
    # 4 jobs x 5ms wall each over 2 cores = 10ms.
    assert sim.now == pytest.approx(10.0)


def test_server_utilization_window():
    sim = Simulator()
    server = Server(sim, "s", M1_SMALL)

    def body():
        yield from server.cpu.use(server.itype.cpu_ms(5.0))

    sim.process(body())
    sim.run(until=10.0)
    util = server.utilization_window()
    assert util == pytest.approx(0.5)
    # A second call over an idle window reports ~0.
    sim.run(until=20.0)
    assert server.utilization_window() == pytest.approx(0.0)


# ----------------------------------------------------------------------
# Cluster provisioning
# ----------------------------------------------------------------------
def test_add_server_unique_names():
    sim = Simulator()
    cluster = Cluster(sim)
    cluster.add_server(M1_SMALL, "x")
    with pytest.raises(ValueError):
        cluster.add_server(M1_SMALL, "x")


def test_provision_boot_delay():
    sim = Simulator()
    cluster = Cluster(sim, boot_delay_ms=100.0)
    handle = cluster.provision(M1_SMALL)
    assert not handle.server.alive
    sim.run()
    assert handle.server.alive
    assert handle.ready.triggered
    assert sim.now == pytest.approx(100.0)


def test_alive_servers_excludes_booting():
    sim = Simulator()
    cluster = Cluster(sim, boot_delay_ms=50.0)
    cluster.add_server(M1_SMALL, "up")
    cluster.provision(M1_SMALL)
    assert set(cluster.alive_servers()) == {"up"}
    sim.run()
    assert len(cluster.alive_servers()) == 2


def test_decommission_removes_server():
    sim = Simulator()
    cluster = Cluster(sim)
    cluster.add_server(M1_SMALL, "gone")
    cluster.decommission("gone")
    assert "gone" not in cluster.servers
    assert len(cluster) == 0


# ----------------------------------------------------------------------
# Edge cases: zero-byte payloads, self-send, FIFO under fault filters
# ----------------------------------------------------------------------
def test_zero_byte_payload_pays_propagation_only():
    sim = Simulator()
    net = Network(sim, lan_ms=0.4, same_host_ms=0.02)
    net.register("a")
    net.register("b")
    assert net.delay_ms("a", "b", size_bytes=0) == pytest.approx(0.4)
    assert net.bytes_sent == 0 and net.messages_sent == 1


def test_self_send_uses_same_host_latency():
    sim = Simulator()
    net = Network(sim, lan_ms=0.4, same_host_ms=0.02)
    box = net.register("a")
    assert net.delay_ms("a", "a", size_bytes=0) == pytest.approx(0.02)
    net.send("a", "a", "loop", size_bytes=0)
    sim.run()
    assert [m.payload for m in box.items] == ["loop"]
    assert sim.now == pytest.approx(0.02)


class _DropAll:
    """A fault filter that refuses every hop and loses every message."""

    def check_hop(self, src, dst):
        raise DeliveryError(f"{src!r} -> {dst!r} is cut")

    def drops(self, src, dst):
        return True


def test_fifo_preserved_across_dropped_messages():
    """A drop still pays egress: survivors queue behind the ghost."""
    sim = Simulator()
    net = Network(sim, lan_ms=0.25)
    box = net.register("dst")
    net.register("src")
    ms_per_byte = 8.0 / (0.7 * 1e6)  # the default 0.7 Gbps NIC
    net.send("src", "dst", "first", size_bytes=70_000)  # egress until 0.8
    net.fault = _DropAll()
    net.send("src", "dst", "ghost", size_bytes=70_000)  # egress until 1.6
    net.fault = None
    net.send("src", "dst", "third", size_bytes=0)
    sim.run()
    assert [m.payload for m in box.items] == ["first", "third"]
    assert net.messages_dropped == 1
    # The third message waited for the ghost's transmission, not just its own.
    assert sim.now == pytest.approx(140_000 * ms_per_byte + 0.25)


# FIFO per pair holds without a per-destination clamp: per sender each
# transmission finishes no earlier than the previous one, and delivery adds
# a latency constant per pair.  Random programs of sends and process hops
# over three endpoints with different NICs, with time advancing and a
# drop-everything filter switched on and off, must deliver every pair's
# traffic in send order; a seeded mutant shows the property can fail.
_ENDPOINTS = (("a", M1_SMALL), ("b", M1_MEDIUM), ("c", M1_LARGE))
_endpoint = st.integers(0, len(_ENDPOINTS) - 1)
_size = st.one_of(st.sampled_from([0, 1, 256, 100_000]), st.integers(0, 100_000))
_net_ops = st.one_of(
    st.tuples(st.sampled_from(["send", "delay"]), _endpoint, _endpoint, _size),
    st.tuples(
        st.just("advance"),
        st.one_of(
            st.sampled_from([0.0, 0.25, 1.0]),
            st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
        ),
    ),
    st.tuples(st.just("toggle")),
)
_NET_PROGRAMS = st.lists(_net_ops, max_size=60)
_NET_SETTINGS = settings(
    max_examples=300, deadline=None, derandomize=True, database=None,
    report_multiple_bugs=False,
)


def _check_fifo(program, network_cls):
    sim = Simulator()
    net = network_cls(sim)
    boxes = {name: net.register(name, itype=itype) for name, itype in _ENDPOINTS}
    timeline = {}  # (src, dst) -> [(op index, delivery time)]
    arrivals = {}  # (src, dst) -> op indices in arrival order
    sent = {}  # (src, dst) -> op indices of messages not dropped

    def arrived(message):
        pair = (message.src, message.dst)
        arrivals.setdefault(pair, []).append(message.payload)
        timeline.setdefault(pair, []).append((message.payload, sim.now))

    for index, (op, *args) in enumerate(program):
        if op == "advance":
            sim.run(until=sim.now + args[0])
        elif op == "toggle":
            net.fault = None if net.fault is not None else _DropAll()
        else:
            src, dst = _ENDPOINTS[args[0]][0], _ENDPOINTS[args[1]][0]
            if op == "send":
                if net.fault is None:
                    sent.setdefault((src, dst), []).append(index)
                net.send(src, dst, index, args[2], arrived)
            elif net.fault is not None:
                with pytest.raises(DeliveryError):
                    net.delay_ms(src, dst, args[2])
            else:
                at = sim.now + net.delay_ms(src, dst, args[2])
                timeline.setdefault((src, dst), []).append((index, at))
    sim.run()
    assert arrivals == sent
    for (src, dst), indices in sent.items():
        assert [m.payload for m in boxes[dst].items if m.src == src] == indices
    for points in timeline.values():
        times = [at for _index, at in sorted(points)]
        assert times == sorted(times)


@_NET_SETTINGS
@given(_NET_PROGRAMS)
def test_fifo_per_pair_without_clamp(program):
    _check_fifo(program, Network)


class _OddSizesLag(Network):
    """Mutant: odd-sized hops take half a millisecond longer."""

    def delay_ms(self, src, dst, size_bytes=256):
        return super().delay_ms(src, dst, size_bytes) + (0.5 if size_bytes % 2 else 0.0)


def test_mutant_odd_sizes_lag_dies():
    # The same property, first failure as found (no shrinking).
    hunt = settings(_NET_SETTINGS, phases=[Phase.generate], max_examples=5000)
    with pytest.raises(AssertionError):
        hunt(given(_NET_PROGRAMS)(lambda program: _check_fifo(program, _OddSizesLag)))()


def test_crash_and_restart_server_helpers():
    sim = Simulator()
    cluster = Cluster(sim)
    cluster.add_server(M1_SMALL, "x")
    sim.run(until=12.0)
    server = cluster.crash_server("x")
    assert not server.alive and server.crashed
    assert server.crashed_at_ms == pytest.approx(12.0)
    assert cluster.alive_servers() == {}
    cluster.restart_server("x")
    assert server.alive and not server.crashed and server.crashed_at_ms is None
    assert set(cluster.alive_servers()) == {"x"}
