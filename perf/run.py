"""The repo's benchmark: one command, one record schema, four listed workloads.

One workload at one seed, end-to-end numbers (tracing off)::

    python3 perf/run.py --workload game_scaleout --seed 1 --seconds 10 --trace 0

The same workload traced — per-layer self time, exact call counts,
spans and the direct layer probes; never mixed with the numbers above::

    python3 perf/run.py --workload game_scaleout --seed 1 --seconds 10 --trace 1

Every workload ``BENCHMARK.json`` lists, ``N`` sets of them for a
calibration table, or two saved sets side by side (``elastic_faults``
and ``dispatch_store`` are not listed and run with ``--workload`` only)::

    python3 perf/run.py --all [--with-trace] [--out FILE]
    python3 perf/run.py --calibrate 10 [--out FILE]
    python3 perf/run.py --compare A.json B.json

Every run starts ``child.py`` in a fresh interpreter, prints each metric
by name with its unit, checks the simulated output, writes one JSON
record under ``.perf_out/`` and ends with the one-line result object.
The exit code is non-zero when any check failed.  ``perf/README.md``
has the metric and workload tables and how to read them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

import report
from reference import NOMINAL_S

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)
SRC_DIR = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
TMP_ROOT = os.path.join(ROOT, ".perf_run")
OUT_DIR = os.path.join(ROOT, ".perf_out")
GOLDEN = os.path.join(ROOT, "tests", "data", "figures_quick_seed0.json")

#: A run that has not reported by then is killed and counts as failed.
CHILD_TIMEOUT_S = 150.0

#: Set-up-only processes before the measured process, and as many after
#: it, so that a burst of a few seconds does not slow them all; setup_s
#: is taken over all of them and the measured one.
SETUPS_EACH_SIDE = 2

#: Workloads that run by name but are not listed in ``BENCHMARK.json``,
#: so ``--all``, ``--calibrate`` and the benchmark's driver leave them
#: out.  The driver's time allows four workloads at this run length:
#: ``elastic_faults`` repeats ``game_scaleout``'s layers for all but 1 %
#: of its time, and ``dispatch_store`` cannot be made steady on a small
#: shared box (three processes on two cores, waits on the disk).
UNLISTED = ("elastic_faults", "dispatch_store")


def by_unit(units: List[Dict[str, Any]], key: str) -> Dict[str, List[float]]:
    """A run's samples of ``key``, one list per unit of the pass."""
    samples: Dict[str, List[float]] = {}
    for row in units:
        samples.setdefault(row["unit"], []).append(row[key])
    return samples


def nominal_pass(
    units: List[Dict[str, Any]], first: Dict[str, float], key: str, reference_key: str
) -> float:
    """One pass at the machine's nominal speed, on one clock.

    Each sample of a unit is divided by the mean of the two reference
    samples taken right before and right after it: whatever slowed the
    machine in that second slowed both.  A unit's cost is the median of
    its ratios over the run's passes, so a stall that hit one sample or
    one reference alone drops out; the pass is the sum over its units,
    in units of ``NOMINAL_S``.  What a pass does between units
    (assembling the cells' results, well under a millisecond) is not in
    the sum.
    """
    ratios: Dict[str, List[float]] = {}
    before = first[reference_key]
    for row in units:
        after = row[reference_key]
        ratios.setdefault(row["unit"], []).append(row[key] / ((before + after) / 2.0))
        before = after
    return NOMINAL_S * sum(statistics.median(values) for values in ratios.values())


def machine_stamp() -> Dict[str, Any]:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                "",
            )
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "python": platform.python_version(),
        "cpu": cpu or platform.processor(),
        "nproc": os.cpu_count(),
        "commit": commit or "unknown",
        "loadavg": list(os.getloadavg()),
        "time": time.time(),
    }


def stop_group(pgid: int) -> None:
    """Kill whatever is left of a child's process group and wait for it.

    A run that ended normally has already joined its pool and queue
    workers; this is for the run that was killed or timed out, whose
    workers would otherwise outlive it.
    """
    deadline = time.monotonic() + 15.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.05)


def run_child(options: List[str], tmp_dir: str) -> Optional[Dict[str, Any]]:
    """Start ``child.py`` and return the object it printed, or None.

    The child writes to files, not pipes: workers it forked hold its
    output open, and a child that was killed would otherwise keep this
    process reading until they are gone.  Its stderr (queue workers log
    every spool they drain) is shown only when the run fails.
    """
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    command = [
        sys.executable, os.path.join(PERF_DIR, "child.py"), *options,
        "--tmp-dir", tmp_dir, "--spawned-ns", str(time.monotonic_ns()),
    ]
    with tempfile.TemporaryFile("w+", dir=tmp_dir) as out, \
            tempfile.TemporaryFile("w+", dir=tmp_dir) as err:
        proc = subprocess.Popen(
            command, stdout=out, stderr=err, env=env, start_new_session=True
        )
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"perf: child timed out after {CHILD_TIMEOUT_S:.0f} s", file=sys.stderr)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            stop_group(proc.pid)
        out.seek(0)
        lines = [line for line in out.read().splitlines() if line.strip()]
        if proc.returncode == 0 and lines:
            try:
                return json.loads(lines[-1])
            except ValueError:
                pass
        err.seek(0)
        sys.stderr.write(err.read())
    print(f"perf: child exited with {proc.returncode} and no result", file=sys.stderr)
    return None


def run_one(
    spec: Dict[str, Any],
    workload: str,
    seed: int,
    seconds: float,
    trace: int,
    smoke: bool,
    golden: str,
) -> Optional[Dict[str, Any]]:
    """One run of one workload; returns its record, or None if it died."""
    os.makedirs(TMP_ROOT, exist_ok=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP_ROOT)
    stem = os.path.join(OUT_DIR, f"{workload}.seed{seed}.trace{trace}")
    options = [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--golden", golden,
    ]
    if smoke:
        options.append("--smoke")
    try:
        each_side = 0 if trace or smoke else SETUPS_EACH_SIDE
        setup_only = options + ["--setup-only"]
        before = [run_child(setup_only, tmp_dir) for _ in range(each_side)]
        spans_out = ["--spans-out", stem + ".spans.jsonl"] if trace else []
        child = run_child(options + spans_out, tmp_dir)
        after = [run_child(setup_only, tmp_dir) for _ in range(each_side)]
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    if child is None or None in before + after:
        return None
    if not child["complete"]:
        # A pass raised: the failures say why, and there is nothing to time.
        for failure in child["failures"]:
            print(f"perf: FAILED {failure}", file=sys.stderr)
        return None
    setups = [row["setup_s"] for row in before + [child] + after]

    if trace:
        wanted, values = spec["per_layer"], child["per_layer"]
    else:
        # Every timing at the machine's nominal speed: see reference.py.
        units, first = child["units"], child["first_reference"]
        wall_s = nominal_pass(units, first, "wall_s", "reference_s")
        references = [first["reference_s"]] + [row["reference_s"] for row in units]
        wanted = spec["end_to_end"]
        values = {
            "wall_s": wall_s,
            "cpu_s": nominal_pass(units, first, "cpu_s", "reference_cpu_s"),
            "ops_per_s": child["ops"] / wall_s,
            "setup_s": statistics.median(setups) * NOMINAL_S / statistics.median(references),
            "peak_rss_mb": child["peak_rss_mb"],
        }
    record = {
        "workload": workload, "seed": seed, "trace": trace, "smoke": smoke,
        "seconds": seconds, "stamp": machine_stamp(),
        "ops": child["ops"], "ops_unit": child["ops_unit"], "digest": child["digest"],
        "attempted": child["attempted"], "failed": child["failed"],
        "failed_share": child["failed"] / child["attempted"],
        "failures": child["failures"], "passes": child["passes"],
        "setup_s_samples": setups, "units": child.get("units", []),
        "first_reference": child.get("first_reference", {}),
        "notes": child.get("notes", {}),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    return record


def print_record(record: Dict[str, Any]) -> None:
    """Every metric by name with its unit, then what backs it up."""
    mode = "traced" if record["trace"] else "end to end"
    print(f"== {record['workload']}  seed {record['seed']}  {mode} ==")
    for name, metric in record["metrics"].items():
        print(f"{name:<36} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{'failed_share':<36} {record['failed_share']:>16.6g} ratio"
          f"   ({record['failed']} of {record['attempted']} attempts)")
    print(f"{'ops':<36} {record['ops']:>16d} {record['ops_unit']} per pass")
    print(f"digest {record['digest']}")
    for row in record["passes"]:
        print(f"  {row['id']:<8} wall {row['wall_s']:.4f} s   cpu {row['cpu_s']:.4f} s")
    if not record["trace"]:
        units = record["units"]
        for name, walls in by_unit(units, "wall_s").items():
            print(f"  {name:<28} wall as timed: median {statistics.median(walls):.4f} s, "
                  f"min {min(walls):.4f} s, max {max(walls):.4f} s")
        references = [row["reference_s"] for row in units]
        print(f"  reference loop as timed: median {statistics.median(references):.4f} s of "
              f"{len(references)}, min {min(references):.4f} s, max {max(references):.4f} s; "
              f"nominal {NOMINAL_S:.4f} s")
        samples = ", ".join(f"{s:.3f}" for s in record["setup_s_samples"])
        print(f"  set-up samples: {samples} s")
    else:
        for name, note in sorted(record["notes"].items()):
            print(f"  note {name}: {json.dumps(note, sort_keys=True)}")
        print("  *.self_s shares are indicative: the profiler's per-call cost inflates")
        print("  call-heavy Python.  *.calls counts are exact and repeat for a seed.")
    for failure in record["failures"]:
        print(f"FAILED {failure}")


def result_line(record: Dict[str, Any]) -> str:
    return json.dumps(
        {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": record["metrics"],
        }
    )


def run_sets(spec: Dict[str, Any], args: argparse.Namespace, sets: int) -> int:
    """``sets`` × all workloads (seed, seed+1, …); save and summarise."""
    records, dead = [], 0
    for index in range(sets):
        for workload in (w["name"] for w in spec["workloads"]):
            for trace in (0, 1) if args.with_trace else (0,):
                record = run_one(
                    spec, workload, args.seed + index, args.seconds, trace,
                    args.smoke, args.golden,
                )
                if record is None:
                    print(f"perf: {workload} seed {args.seed + index} died", file=sys.stderr)
                    dead += 1
                    continue
                print_record(record)
                print()
                records.append(record)
    out = args.out or os.path.join(OUT_DIR, "sets.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({"stamp": machine_stamp(), "records": records}, handle, indent=1)
    print(report.summarize(records, spec))
    print(f"wrote {out}")
    return 1 if dead or any(record["failed"] for record in records) else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", help="run this one workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure for this long (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, two passes: checks the plumbing, not the speed")
    parser.add_argument("--golden", default=GOLDEN,
                        help="golden figures the seed-0 series must equal")
    parser.add_argument("--all", action="store_true", help="one set: every workload")
    parser.add_argument("--calibrate", type=int, metavar="N", help="N sets, then a table")
    parser.add_argument("--with-trace", action="store_true",
                        help="with --all/--calibrate: also the traced run of each")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--out", help="where --all/--calibrate save their records")
    args = parser.parse_args(argv)
    # A terminated run still stops its child's process group and removes
    # its scratch directory: both happen in ``finally`` blocks.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        print(f"perf: no program to measure: {SRC_DIR}/repro is missing", file=sys.stderr)
        return 2
    with open(SPEC_PATH, encoding="utf-8") as handle:
        spec = json.load(handle)
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(spec["run_seconds"])

    if args.compare:
        sets = []
        for path in args.compare:
            with open(path, encoding="utf-8") as handle:
                sets.append(json.load(handle)["records"])
        print(report.compare(sets[0], sets[1], spec))
        return 0
    if args.calibrate or args.all:
        return run_sets(spec, args, args.calibrate or 1)
    if not args.workload:
        parser.error("give --workload, --all, --calibrate N or --compare A B")
    if args.workload not in {w["name"] for w in spec["workloads"]} | set(UNLISTED):
        parser.error(f"unknown workload {args.workload!r}")
    record = run_one(
        spec, args.workload, args.seed, args.seconds, args.trace, args.smoke, args.golden
    )
    if record is None:
        return 2
    print_record(record)
    print(result_line(record))
    return 1 if record["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
