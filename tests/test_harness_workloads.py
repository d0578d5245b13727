"""Tests for the workload generators, harness runner and report module."""

import pytest

from repro.core import AeonRuntime, ContextClass, Ref
from repro.harness.report import format_series, format_table
from repro.apps.game import GameConfig, build_game
from repro.harness.runner import (
    SYSTEMS,
    make_testbed,
    run_closed_loop,
    runtime_class_for,
)
from repro.workloads import ClosedLoopClients, RampProfile, SlaReport, sla_report
from repro.workloads.generators import DynamicClients
from repro.sim.metrics import LatencyRecorder

from conftest import Cell, Testbed


# ----------------------------------------------------------------------
# Report rendering
# ----------------------------------------------------------------------
def test_format_table_alignment():
    text = format_table("T", ["a", "bb"], [[1, 2.5], ["xyz", 4]])
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[2] and "bb" in lines[2]
    assert "2.50" in text and "xyz" in text


def test_format_table_empty_rows():
    text = format_table("Empty", ["col"], [])
    assert "col" in text


def test_format_series():
    text = format_series("S", {"x": [(1.0, 2.0)]})
    assert "[x]" in text and "2.00" in text


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
def test_runtime_class_for_known_systems():
    for system in SYSTEMS:
        assert runtime_class_for(system) is not None
    with pytest.raises(ValueError):
        runtime_class_for("nope")


def test_make_testbed_builds_cluster():
    testbed = make_testbed("aeon", 3)
    assert len(testbed.servers) == 3
    assert isinstance(testbed.runtime, AeonRuntime)


def test_run_game_produces_metrics():
    with make_testbed("aeon", 2) as testbed:
        app = build_game(
            testbed.runtime, GameConfig(rooms=2), "aeon", servers=testbed.servers
        )
        result = run_closed_loop(
            testbed, "aeon", app.sample_op, 8,
            think_ms=1.0, duration_ms=400.0, warmup_ms=100.0, drain_ms=2000.0,
        )
    assert result.throughput_per_s > 0
    assert result.mean_latency_ms > 0
    assert result.p99_latency_ms >= result.p50_latency_ms
    assert result.errors == 0


# ----------------------------------------------------------------------
# Closed-loop clients
# ----------------------------------------------------------------------
def test_closed_loop_clients_submit_until_stop():
    bed = Testbed(AeonRuntime)
    cell = bed.runtime.create_context(Cell, server=bed.servers[0], name="cc")

    def sampler(rng):
        return cell.add(1), "op"

    clients = ClosedLoopClients(bed.runtime, sampler, n_clients=3,
                                think_ms=1.0, stop_at_ms=50.0)
    clients.start()
    bed.sim.run(until=200.0)
    assert clients.submitted > 10
    assert bed.runtime.instance_of(cell).value == clients.submitted
    assert not clients.errors


def test_closed_loop_requires_clients():
    bed = Testbed(AeonRuntime)
    with pytest.raises(ValueError):
        ClosedLoopClients(bed.runtime, lambda r: None, n_clients=0)


# ----------------------------------------------------------------------
# Ramp profile and dynamic clients
# ----------------------------------------------------------------------
def test_ramp_profile_normal_peak_shape():
    profile = RampProfile.normal_peak(1000.0, machines=4, min_per_machine=1,
                                      max_per_machine=10)
    start = profile.target_at(0.0)
    mid = profile.target_at(500.0)
    end = profile.target_at(1000.0)
    assert mid > start and mid > end
    assert profile.peak() == mid
    assert start >= 4  # min 1 per machine x 4 machines


def test_ramp_profile_step_hold():
    profile = RampProfile([(0.0, 2), (100.0, 5)])
    assert profile.target_at(50.0) == 2
    assert profile.target_at(100.0) == 5
    assert profile.target_at(999.0) == 5


def test_dynamic_clients_track_profile():
    bed = Testbed(AeonRuntime)
    cell = bed.runtime.create_context(Cell, server=bed.servers[0], name="dc")

    def sampler(rng):
        return cell.add(1), "op"

    profile = RampProfile([(0.0, 2), (100.0, 6), (300.0, 1)])
    clients = DynamicClients(bed.runtime, sampler, profile, think_ms=2.0,
                             tick_ms=20.0, stop_at_ms=500.0)
    clients.start()
    bed.sim.run(until=800.0)
    counts = dict(clients.active_series)
    assert max(v for v in counts.values()) == 6
    at_end = [v for t, v in clients.active_series if t >= 320.0]
    assert at_end and at_end[-1] == 1


# ----------------------------------------------------------------------
# SLA accounting
# ----------------------------------------------------------------------
def test_sla_report_counts_violations():
    recorder = LatencyRecorder()
    for latency in (1.0, 5.0, 15.0, 25.0):
        recorder.record(0.0, latency)
    report = sla_report("test", recorder, sla_ms=10.0, avg_servers=3.5)
    assert report.total_requests == 4
    assert report.violations == 2
    assert report.violation_pct == pytest.approx(50.0)
    assert report.avg_servers == 3.5


def test_sla_report_empty():
    report = sla_report("empty", LatencyRecorder(), 10.0, 1.0)
    assert report.violation_pct == 0.0


# ----------------------------------------------------------------------
# Inductive contextclasses (reflexive constraints, §3)
# ----------------------------------------------------------------------
class ListNode(ContextClass):
    """The paper's inductive-structure case: a linked list of contexts."""

    next_node = Ref("ListNode")

    def __init__(self, value):
        self.value = value

    def sum_from_here(self):
        total = self.value
        if self.next_node is not None:
            total += yield self.next_node.sum_from_here()
        return total


def test_recursive_contextclass_accepted_and_runs():
    bed = Testbed(AeonRuntime)
    runtime = bed.runtime
    nodes = [
        runtime.create_context(ListNode, server=bed.servers[0],
                               name=f"node-{i}", args=(i,))
        for i in range(4)
    ]
    for i in range(3):
        runtime.instance_of(nodes[i]).next_node = nodes[i + 1]
    event = bed.run_event(nodes[0].sum_from_here())
    assert event.error is None
    assert event.result == 0 + 1 + 2 + 3
    assert "ListNode" in runtime.analysis.recursive_types()


def test_recursive_contextclass_cycle_rejected_at_runtime():
    """The reflexive allowance costs a runtime DAG check (§3)."""
    from repro.core.errors import OwnershipCycleError

    bed = Testbed(AeonRuntime)
    runtime = bed.runtime
    a = runtime.create_context(ListNode, server=bed.servers[0], name="la", args=(1,))
    b = runtime.create_context(ListNode, server=bed.servers[0], name="lb", args=(2,))
    runtime.instance_of(a).next_node = b
    with pytest.raises(OwnershipCycleError):
        runtime.instance_of(b).next_node = a
