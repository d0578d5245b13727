"""The measured process: set up one workload, run its passes, report.

``run.py`` starts this file in a fresh interpreter for every run and
reads one JSON object from its standard output.  Set-up — interpreter
start, ``import repro``, building the workload from the seed and one
warm-up — ends where the first pass begins; the passes are the measured
region.  A pass is made of *units* (one cell, one kernel loop): each is
timed on its own and followed by one call of the reference loop, so the
run reports many short samples of the program and as many of the machine
beside it.  With ``--trace 1`` the end-to-end numbers are not reported
at all: two plain passes (one under ``--smoke``) give the untraced
median, one more pass runs under ``cProfile`` with spans on, and then
the direct layer probes run.
"""

from __future__ import annotations

import argparse
import cProfile
import contextlib
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from typing import Any, Dict, Iterator, List, Optional

# Set-up time is counted from here when run.py does not pass the moment
# it spawned this process.
_STARTED_NS = time.monotonic_ns()

import repro  # noqa: E402
from repro.results import canonical  # noqa: E402

import probes  # noqa: E402
import workloads  # noqa: E402
from reference import ROUNDS, reference_loop  # noqa: E402
from spans import Spans, bucket_profile  # noqa: E402


def cpu_seconds() -> float:
    """User + system CPU of this process and the children it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus that of its largest reaped child."""
    return sum(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def digest(data: Any) -> str:
    text = json.dumps(canonical(data), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Units:
    """Times every unit of a pass, and the reference loop after each.

    ``rounds`` is the reference loop's size; 0 (the traced run) records
    spans only.  The reference runs after the unit's clock has stopped,
    and not at all outside a pass (the warm-up runs units too).
    """

    def __init__(self, spans: Spans, rounds: int) -> None:
        self.spans = spans
        self.rounds = rounds
        self.rows: List[Dict[str, Any]] = []

    def reference(self) -> Dict[str, float]:
        """One call of the reference loop, on both clocks, at full size."""
        cpu_start = time.process_time()
        wall = reference_loop(self.rounds)
        cpu = time.process_time() - cpu_start
        scale = ROUNDS / self.rounds
        return {"reference_s": wall * scale, "reference_cpu_s": cpu * scale}

    @contextlib.contextmanager
    def unit(self, name: str) -> Iterator[None]:
        with self.spans.span(name):
            cpu_start, start = cpu_seconds(), time.perf_counter()
            yield
            wall, cpu = time.perf_counter() - start, cpu_seconds() - cpu_start
        if self.rounds and self.spans.pass_id is not None:
            self.rows.append(
                {"pass": self.spans.pass_id, "unit": name, "wall_s": wall,
                 "cpu_s": cpu, **self.reference()}
            )


class Run:
    """Passes of one workload, with the attempt and failure accounting."""

    def __init__(self, workload: Any, units: Units) -> None:
        self.workload = workload
        self.units = units
        self.spans = units.spans
        self.passes: List[Dict[str, Any]] = []
        self.attempted = 0
        self.failures: List[str] = []
        self.raised = False

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    def one_pass(self, pass_id: str, profile: Optional[cProfile.Profile] = None) -> bool:
        """Run and check one pass; False when it raised (no more passes)."""
        gc.collect()
        self.spans.pass_id = pass_id
        cpu_start, start = cpu_seconds(), time.perf_counter()
        try:
            with self.spans.span("pass"):
                if profile is not None:
                    profile.enable()
                try:
                    result = self.workload.run_pass()
                finally:
                    if profile is not None:
                        profile.disable()
        except Exception:
            # A cell that raised or was lost: the pass is a failed attempt.
            self.check(f"{pass_id} raised: {traceback.format_exc(limit=4)}", False)
            self.raised = True
            return False
        wall, cpu = time.perf_counter() - start, cpu_seconds() - cpu_start
        self.spans.pass_id = None
        timed = [row for row in self.units.rows if row["pass"] == pass_id]
        if timed:  # the pass's own clock ran through the reference loops too
            wall = sum(row["wall_s"] for row in timed)
            cpu = sum(row["cpu_s"] for row in timed)
        self.attempted += result.cells
        for name, ok in result.checks:
            self.check(f"{pass_id} {name}", ok)
        row = {
            "id": pass_id, "wall_s": wall, "cpu_s": cpu,
            "ops": result.ops, "digest": digest(result.data),
        }
        if self.passes:
            self.check(
                f"{pass_id} digest equals first pass",
                (row["ops"], row["digest"]) == (self.passes[0]["ops"], self.passes[0]["digest"]),
            )
        self.passes.append(row)
        return True


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tmp-dir", required=True)
    parser.add_argument("--golden", required=True)
    parser.add_argument("--spans-out", default="")
    parser.add_argument("--spawned-ns", type=int, default=_STARTED_NS)
    args = parser.parse_args(argv)

    spans = Spans(bool(args.trace), args.workload)
    profile = cProfile.Profile() if args.trace else None
    rounds = 0 if args.trace else ROUNDS // 10 if args.smoke else ROUNDS
    units = Units(spans, rounds)

    @contextlib.contextmanager
    def unprofiled() -> Iterator[None]:
        if profile is None:
            yield
            return
        profile.disable()
        try:
            yield
        finally:
            profile.enable()

    with spans.span("setup"):
        env = workloads.Env(
            args.seed, args.smoke, args.tmp_dir, args.golden, spans, units.unit, unprofiled
        )
        workload = workloads.WORKLOADS[args.workload](env)
        workload.warmup()
    setup_s = (time.monotonic_ns() - args.spawned_ns) / 1e9
    out: Dict[str, Any] = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    run = Run(workload, units)
    if not args.trace:
        # As many passes as end before ``--seconds`` have gone by, and at
        # least three, so no unit's median is one sample alone — unless
        # the machine is so slow that three take twice the time allowed.
        deadline = time.perf_counter() + args.seconds
        minimum = 2 if args.smoke else 3
        took = 0.0
        out["first_reference"] = units.reference()
        while (
            time.perf_counter() + took < deadline
            or not run.passes
            or (len(run.passes) < minimum and time.perf_counter() < deadline + args.seconds)
        ):
            start = time.perf_counter()
            if not run.one_pass(f"pass{len(run.passes)}"):
                break
            took = time.perf_counter() - start
        out["units"] = units.rows
    else:
        ok = run.one_pass("plain0") and (args.smoke or run.one_pass("plain1"))
        plain = [row["wall_s"] for row in run.passes]
        if ok and run.one_pass("traced", profile):
            layers = bucket_profile(profile, os.path.dirname(repro.__file__))
            layers["trace.overhead_ratio"] = run.passes[-1]["wall_s"] / statistics.median(plain)
            src_dir = os.path.dirname(os.path.dirname(repro.__file__))
            probe = probes.Probe(args.seed, args.smoke, args.tmp_dir, src_dir, spans)
            probes.run_probes(probe)
            layers.update(probe.values)
            out["per_layer"] = layers
            out["notes"] = probe.notes
        if args.spans_out:
            spans.write(args.spans_out)

    out.update(
        complete=not run.raised,
        passes=run.passes,
        ops=run.passes[0]["ops"] if run.passes else 0,
        ops_unit=workload.ops_unit,
        digest=run.passes[0]["digest"] if run.passes else "",
        peak_rss_mb=peak_rss_mb(),
        attempted=run.attempted,
        failed=len(run.failures),
        failures=run.failures,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
