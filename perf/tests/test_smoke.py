"""Smoke test of the benchmark's plumbing: ``pytest perf/tests``.

Not part of tier-1 (``pyproject.toml`` collects ``tests/`` only).  The
``--smoke`` sizing runs the four listed workloads, end to end and
traced, in well under 20 s, and the two unlisted ones beside them;
nothing here looks at a speed.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

import pytest

PERF_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERF_DIR)
RUN = os.path.join(PERF_DIR, "run.py")
GOLDEN = os.path.join(ROOT, "tests", "data", "figures_quick_seed0.json")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)

#: Run by name only (see run.py's UNLISTED).
UNLISTED = ("elastic_faults", "dispatch_store")


def run(*options: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN, *options], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def smoke_set(out: str) -> list:
    done = run("--all", "--with-trace", "--smoke", "--out", out)
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)["records"]


@pytest.fixture(scope="module")
def two_sets(tmp_path_factory) -> tuple:
    tmp = tmp_path_factory.mktemp("sets")
    return smoke_set(str(tmp / "a.json")), smoke_set(str(tmp / "b.json"))


@pytest.fixture(scope="module")
def unlisted() -> dict:
    """Result lines of the unlisted workloads, keyed by (workload, trace)."""
    lines = {}
    for workload in UNLISTED:
        for trace in (0, 1):
            done = run("--workload", workload, "--seed", "0", "--trace", str(trace), "--smoke")
            assert done.returncode == 0, done.stdout + done.stderr
            lines[workload, trace] = json.loads(done.stdout.splitlines()[-1])
    return lines


def test_every_named_metric_is_emitted_with_its_unit(two_sets):
    records = two_sets[0]
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, wanted in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            (record,) = [
                r for r in records if r["workload"] == workload and r["trace"] == trace
            ]
            assert set(record["metrics"]) == {m["name"] for m in wanted}
            for metric in wanted:
                got = record["metrics"][metric["name"]]
                assert NAME.fullmatch(metric["name"])
                assert got["unit"] == metric["unit"]
                assert isinstance(got["value"], (int, float))
            assert record["failed"] == 0 and record["attempted"] >= 1


def test_end_to_end_metrics_are_never_zero(two_sets):
    for record in two_sets[0]:
        if record["trace"] == 0:
            assert all(m["value"] > 0 for m in record["metrics"].values())


def test_counts_repeat_exactly(two_sets):
    def counts(records: list) -> dict:
        out = {}
        for r in records:
            calls = {n: m["value"] for n, m in r["metrics"].items() if n.endswith(".calls")}
            out[r["workload"], r["trace"]] = (r["ops"], r["digest"], calls)
        return out

    first, second = counts(two_sets[0]), counts(two_sets[1])
    assert first == second
    assert all(ops > 0 and digest for ops, digest, _ in first.values())
    assert len(first) == 2 * len(SPEC["workloads"])


def test_unlisted_workloads_still_run_and_report_every_metric(unlisted):
    for (_workload, trace), line in unlisted.items():
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        assert line["correct"] is True and line["failed"] == 0
        assert set(line["metrics"]) == {m["name"] for m in wanted}


def test_traced_run_attributes_time_to_the_right_layers(two_sets, unlisted):
    traced = {r["workload"]: r["metrics"] for r in two_sets[0] if r["trace"] == 1}
    traced.update({w: unlisted[w, 1]["metrics"] for w in UNLISTED})

    def share(metrics: dict, layers: tuple) -> float:
        packages = [n for n in metrics if re.fullmatch(r"[a-z]+\.self_s", n) and n != "other.self_s"]
        total = sum(metrics[n]["value"] for n in packages)
        return sum(metrics[f"{layer}.self_s"]["value"] for layer in layers) / total

    assert share(traced["kernel_micro"], ("sim",)) >= 0.9
    assert share(traced["dispatch_store"], ("sim", "core")) < 0.05
    assert traced["elastic_faults"]["faults.calls"]["value"] > 0
    assert traced["game_scaleout"]["faults.calls"]["value"] == 0


def test_result_line_has_exactly_the_contract_keys():
    done = run("--workload", "kernel_micro", "--seed", "5", "--trace", "0", "--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_a_corrupted_expected_value_fails_the_command(tmp_path):
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    golden["experiments"]["fig5a"]["eventwave"][0][1] += 1.0
    corrupted = tmp_path / "golden.json"
    corrupted.write_text(json.dumps(golden), encoding="utf-8")
    options = ("--workload", "game_scaleout", "--seed", "0", "--trace", "0", "--smoke")

    good = run(*options)
    assert good.returncode == 0, good.stdout + good.stderr
    bad = run(*options, "--golden", str(corrupted))
    assert bad.returncode != 0
    result = json.loads(bad.stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
    assert "FAILED" in bad.stdout and "golden fig5a/eventwave" in bad.stdout


def test_it_refuses_to_run_without_the_program(tmp_path):
    """A directory with only BENCHMARK.json and perf/: non-zero, no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(PERF_DIR, tmp_path / "perf", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "kernel_micro", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_scratch_directories_are_removed(two_sets):
    leftovers = os.listdir(os.path.join(ROOT, ".perf_run"))
    assert leftovers == []


def children_of(pid: int) -> list:
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            found.append(int(entry))
    return found


def test_a_killed_run_leaves_no_worker_and_no_scratch_behind():
    proc = subprocess.Popen(
        [sys.executable, RUN, "--workload", "dispatch_store", "--seed", "0",
         "--seconds", "30", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        # The measured process is run.py's child; wait until it has
        # workers of its own (pool or queue), then kill it outright.
        deadline = time.monotonic() + 60.0
        victim, workers = None, []
        while time.monotonic() < deadline and not workers:
            time.sleep(0.2)
            for child in children_of(proc.pid):
                victim, workers = child, children_of(child)
        assert victim and workers, "the run never spawned a worker"
        os.kill(victim, signal.SIGKILL)
        stdout, _ = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode != 0
    assert '"metrics"' not in stdout
    assert all(not os.path.exists(f"/proc/{pid}") for pid in workers)
    assert os.listdir(os.path.join(ROOT, ".perf_run")) == []
