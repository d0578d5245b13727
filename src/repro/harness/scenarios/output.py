"""Assembly and rendering: cell results → figure data → text.

A spec's ``output`` names one :data:`OUTPUTS` entry, an ``(assemble,
render)`` pair: ``assemble(spec, cells, results)`` turns the results
(in cell order) into the figure data, and ``render(spec, data)`` turns
that into the text the CLI prints.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Tuple

from ...sim.metrics import mean
from ..report import format_table
from .spec import ScenarioError, ScenarioSpec


# ----------------------------------------------------------------------
# Assembly: cell results (in cell order) -> figure data
# ----------------------------------------------------------------------
def _grouped(cells, results, width: int) -> Dict[Tuple, List[Any]]:
    """Cell values grouped by the first ``width`` key parts, groups in
    first-seen order and values in cell order."""
    groups: Dict[Tuple, List[Any]] = {}
    for cell, result in zip(cells, results):
        groups.setdefault(cell.key[:width], []).append(result.value)
    return groups


def _assemble_curve(spec, cells, results):
    """``{system: [(x, value), ...]}`` — systems × one x axis (+ seeds).

    With a swept ``seed`` axis the metric is averaged across seeds per
    (system, x) point; a single seed passes values through untouched.
    """
    curves: Dict[str, List[Tuple[Any, Any]]] = {s: [] for s in spec.systems}
    for (system, x), values in _grouped(cells, results, 2).items():
        value = values[0] if len(values) == 1 else mean(values)
        curves[system].append((x, value))
    return curves


def _assemble_xy(spec, cells, results):
    """``{system: [metric-tuple, ...]}`` in sweep order (fig5b/fig6b)."""
    curves: Dict[str, List[Any]] = {s: [] for s in spec.systems}
    for cell, result in zip(cells, results):
        curves[cell.key[0]].append(result.value)
    return curves


def _assemble_by_first_key(spec, cells, results):
    """``{key[0]: run}`` in cell order (fig10-style per-system runs)."""
    return {
        cell.key[0]: result.value for cell, result in zip(cells, results)
    }


def _aggregate_elastic_runs(runs: List[Dict[str, object]]) -> Dict[str, object]:
    """Average multi-rep elastic runs (single-rep passes through untouched).

    The latency series is averaged pointwise by window time; the
    server/client series stay rep 0's (fleet decisions are per-replica
    trajectories, not averageable); SLA scalars average across reps.
    """
    if len(runs) == 1:
        return runs[0]
    by_time: Dict[float, List[float]] = {}
    for run in runs:
        for t, value in run["latency_series"]:
            by_time.setdefault(t, []).append(value)
    first = runs[0]
    reports = [run["sla"] for run in runs]
    return {
        "setup": first["setup"],
        "reps": len(runs),
        "latency_series": [(t, mean(vals)) for t, vals in sorted(by_time.items())],
        "server_series": first["server_series"],
        "client_series": first["client_series"],
        "sla": {
            "setup": reports[0].setup,
            "sla_ms": reports[0].sla_ms,
            "total_requests": sum(r.total_requests for r in reports),
            "violations": sum(r.violations for r in reports),
            "violation_pct": mean([r.violation_pct for r in reports]),
            "avg_servers": mean([r.avg_servers for r in reports]),
        },
    }


def _assemble_fig7(spec, cells, results):
    """``{setup: run}`` — multi-rep setups aggregate via the rep shards."""
    return {
        setup: _aggregate_elastic_runs(runs)
        for (setup,), runs in _grouped(cells, results, 1).items()
    }


def _assemble_table1(spec, cells, results):
    """Table 1 rows: one per setup, averaged across rep shards."""
    rows = []
    for (setup,), runs in _grouped(cells, results, 1).items():
        reports = [run["sla"] for run in runs]
        rows.append(
            {
                "setup": f"{setup}-server" if setup != "elastic" else "Elastic",
                "violation_pct": mean([r.violation_pct for r in reports]),
                "avg_servers": mean([r.avg_servers for r in reports]),
                "requests": sum(r.total_requests for r in reports),
            }
        )
    return rows


def _assemble_fig8(spec, cells, results):
    return {
        f"{cell.key[0]} contexts": result.value
        for cell, result in zip(cells, results)
    }


_FIG9_SIZE_LABELS = {1024: "1KB", 1_000_000: "1MB"}


def _assemble_fig9(spec, cells, results):
    out: Dict[str, Dict[str, float]] = {}
    for cell, result in zip(cells, results):
        itype, size_bytes = cell.key[0], cell.key[1]
        label = _FIG9_SIZE_LABELS.get(size_bytes, f"{size_bytes}B")
        out.setdefault(itype, {})[label] = result.value
    return out


def _assemble_fig11(spec, cells, results):
    systems: Dict[str, object] = {}
    aeon_full = None
    for cell, result in zip(cells, results):
        system, mode = cell.key[0], cell.key[1]
        if mode == "delta":
            systems[system] = result.value
        else:
            aeon_full = result.value
    return {
        "window_ms": spec.faults.window_ms,
        "systems": systems,
        "aeon_full": aeon_full,
    }


def _assemble_ablation(spec, cells, results):
    labels = {True: "chain-release", False: "hold-till-commit"}
    return {
        labels[cell.key[0]]: result.value
        for cell, result in zip(cells, results)
    }


def _assemble_split_brain(spec, cells, results):
    """``{"fenced"/"unfenced": run}`` plus the lost-updates invariant.

    The invariant the scenario exists to prove: **zero** lost updates
    with fencing on (the step-down flush preserves every acked write),
    a **nonzero** count with fencing off (restore rolls back to the
    last periodic checkpoint while the old owner was still serving).
    """
    runs = {
        "fenced" if cell.key[1] else "unfenced": result.value
        for cell, result in zip(cells, results)
    }
    lost = {label: run["lost_updates"] for label, run in runs.items()}
    return {
        "runs": runs,
        "invariant": {
            "fenced_lost_updates": lost.get("fenced"),
            "unfenced_lost_updates": lost.get("unfenced"),
            "zero_loss_with_fencing": lost.get("fenced") == 0,
            "loss_without_fencing": lost.get("unfenced", 0) > 0,
        },
    }


def _assemble_massive(spec, cells, results):
    """The single run dict (one rep) or ``{rep: run}`` (sharded reps)."""
    if len(results) == 1:
        return results[0].value
    return {f"rep{cell.key[0]}": r.value for cell, r in zip(cells, results)}


def _assemble_churn_sweep(spec, cells, results):
    rows = []
    runs: Dict[str, object] = {}
    for cell, result in zip(cells, results):
        run = result.value
        mtbf = cell.key[-1]
        runs[f"{run['system']}@{mtbf:g}"] = run
        rows.append(
            {
                "system": run["system"],
                "mtbf_ms": mtbf,
                "crashes": run["crashes"],
                "availability_pct": run["slo"]["availability_pct"],
                "mean_detection_latency_ms": run["mean_detection_latency_ms"],
                "contexts_recovered": run["contexts_recovered"],
                "events_failed": run["events_failed"],
                "checkpoint_bytes_written": run["checkpoint_bytes_written"],
            }
        )
    return {"window_ms": spec.faults.window_ms, "rows": rows, "runs": runs}


# ----------------------------------------------------------------------
# Rendering: figure data -> text
# ----------------------------------------------------------------------
def _render_grid_curve(spec, data) -> str:
    systems = list(data)
    xs = [x for x, _ in data[systems[0]]]
    rows = []
    for i, x in enumerate(xs):
        rows.append([x] + [round(data[s][i][1]) for s in systems])
    return format_table(spec.title, ["servers"] + systems, rows)


def _render_xy_curve(spec, data) -> str:
    lines = [spec.title, ""]
    for system, points in data.items():
        lines.append(f"[{system}]")
        for x, y in points:
            lines.append(f"  {x:10.1f}  {y:10.2f}")
        lines.append("")
    return "\n".join(lines)


def _sla_field(sla, name):
    """Read an SLA field from a SlaReport or an aggregated-rep dict."""
    return sla[name] if isinstance(sla, dict) else getattr(sla, name)


def _render_fig7(spec, data) -> str:
    lines = [spec.title, ""]
    for setup, run in data.items():
        values = [v for _t, v in run["latency_series"]]
        lines.append(
            f"  {setup:>8}: mean={mean(values):6.2f} ms  "
            f"peak={max(values) if values else 0:6.2f} ms  "
            f"violations={_sla_field(run['sla'], 'violation_pct'):5.1f}%"
        )
    return "\n".join(lines)


def _render_table1(spec, data) -> str:
    return format_table(
        spec.title,
        ["setup", "% requests > SLA", "avg servers", "requests"],
        [
            [r["setup"], round(r["violation_pct"], 1), round(r["avg_servers"], 1), r["requests"]]
            for r in data
        ],
    )


def _render_fig8(spec, data) -> str:
    lines = [spec.title, ""]
    for label, points in data.items():
        values = [v for _t, v in points]
        steady = mean(values[:4]) if len(values) >= 4 else mean(values)
        dip = min(values) if values else 0.0
        lines.append(f"  {label:>12}: steady={steady:7.1f}/s  dip={dip:7.1f}/s")
    return "\n".join(lines)


def _render_fig9(spec, data) -> str:
    rows = [
        [itype, round(sizes["1KB"], 1), round(sizes["1MB"], 1)]
        for itype, sizes in data.items()
    ]
    return format_table(spec.title, ["instance", "1KB", "1MB"], rows)


def fig10_phases(run: Dict[str, object]) -> Dict[str, float]:
    """Mean goodput of one fig10 run before / during / after the outage.

    ``pre`` skips the first 10% as warmup; ``outage`` spans the crash to
    the end of recovery (or the detector lease window when no recovery
    ran); ``post`` starts 1 s after recovery finished.
    """
    crash = float(run["crash_at_ms"])
    duration = float(run["duration_ms"])
    recovery_end = crash
    for entry in run["recoveries"]:
        finished = entry.get("finished_ms")
        if finished is not None and finished > recovery_end:
            recovery_end = finished
    if recovery_end <= crash:
        recovery_end = crash + 1500.0
    goodput = run["goodput"]
    pre = [v for t, v in goodput if duration * 0.1 <= t < crash]
    outage = [v for t, v in goodput if crash <= t < recovery_end]
    post = [v for t, v in goodput if recovery_end + 1000.0 <= t < duration]
    return {
        "pre": mean(pre),
        "outage": mean(outage),
        "post": mean(post),
        "recovery_end_ms": recovery_end,
    }


def _render_fig10(spec, data) -> str:
    rows = []
    for system, run in data.items():
        phases = fig10_phases(run)
        detections = run["detections"]
        detect_ms = mean(
            [d["latency_ms"] for d in detections if d["latency_ms"] is not None]
        )
        rows.append(
            [
                system,
                round(phases["pre"], 1),
                round(phases["outage"], 1),
                round(phases["post"], 1),
                round(detect_ms, 1),
                run["contexts_recovered"],
                run["events_failed"],
            ]
        )
    return format_table(
        spec.title,
        ["system", "pre-crash", "outage", "recovered", "detect ms", "ctx restored", "failed"],
        rows,
    )


def _render_fig11(spec, data) -> str:
    rows = []
    runs = dict(data["systems"])
    runs["aeon (full ckpt)"] = data["aeon_full"]
    for label, run in runs.items():
        slo = run["slo"]
        rows.append(
            [
                label,
                round(slo["availability_pct"], 1),
                round(slo["baseline_goodput_per_s"], 1),
                round(slo["goodput_target_per_s"], 1),
                round(run["mean_detection_latency_ms"], 1),
                run["contexts_recovered"],
                run["events_failed"],
                run["checkpoints_taken"],
                run["checkpoints_skipped"],
                run["checkpoint_bytes_written"],
            ]
        )
    table = format_table(
        spec.title,
        [
            "system",
            "avail %",
            "base ev/s",
            "target ev/s",
            "detect ms",
            "ctx restored",
            "failed",
            "ckpts",
            "skipped",
            "ckpt bytes",
        ],
        rows,
    )
    delta_bytes = data["systems"]["aeon"]["checkpoint_bytes_written"]
    full_bytes = data["aeon_full"]["checkpoint_bytes_written"]
    saving = 100.0 * (1.0 - delta_bytes / full_bytes) if full_bytes else 0.0
    return (
        table
        + f"\n\ndelta checkpoints: {delta_bytes:,} bytes vs full "
        + f"{full_bytes:,} bytes ({saving:.1f}% saved on identical churn)"
    )


def _render_split_brain(spec, data) -> str:
    rows = []
    for label in ("fenced", "unfenced"):
        run = data["runs"].get(label)
        if run is None:
            continue
        rows.append(
            [
                label,
                run["lost_updates"],
                run["fenced_writes"],
                run["flush_restores"],
                run["contexts_recovered"],
                run["false_detections"],
                run["events_failed"],
                run["client_retries"],
            ]
        )
    table = format_table(
        spec.title,
        ["mode", "lost upd", "fenced wr", "flush rst", "ctx restored",
         "false det", "failed", "retries"],
        rows,
    )
    inv = data["invariant"]
    return (
        table
        + f"\n\nzero lost updates with fencing: {inv['zero_loss_with_fencing']}"
        + f"; lost updates without fencing: {inv['unfenced_lost_updates']}"
    )


def _render_partition_recovery(spec, data) -> str:
    rows = []
    for system, run in data.items():
        rows.append(
            [
                system,
                round(run["partition_at_ms"], 1),
                round(run["partition_heal_ms"], 1),
                run["lost_updates"],
                run["flush_restores"],
                run["contexts_recovered"],
                run["false_detections"],
                run["events_failed"],
            ]
        )
    return format_table(
        spec.title,
        ["system", "cut ms", "heal ms", "lost upd", "flush rst",
         "ctx restored", "false det", "failed"],
        rows,
    )


def _render_ablation(spec, data) -> str:
    return format_table(
        spec.title,
        ["mode", "events/s"],
        [[k, round(v, 1)] for k, v in data.items()],
    )


def _render_churn_sweep(spec, data) -> str:
    rows = [
        [
            r["system"],
            round(r["mtbf_ms"]),
            r["crashes"],
            round(r["availability_pct"], 1),
            round(r["mean_detection_latency_ms"], 1),
            r["contexts_recovered"],
            r["events_failed"],
            r["checkpoint_bytes_written"],
        ]
        for r in data["rows"]
    ]
    return format_table(
        spec.title,
        ["system", "MTBF ms", "crashes", "avail %", "detect ms",
         "ctx restored", "failed", "ckpt bytes"],
        rows,
    )


def _render_mixed(spec, data) -> str:
    rows = []
    for system, run in data.items():
        rows.append(
            [
                system,
                round(run["game"]["throughput_per_s"], 1),
                round(run["game"]["p99_latency_ms"], 2),
                round(run["tpcc"]["throughput_per_s"], 1),
                round(run["tpcc"]["p99_latency_ms"], 2),
                round(run["combined"]["throughput_per_s"], 1),
                run["game_errors"] + run["tpcc_errors"],
            ]
        )
    return format_table(
        spec.title,
        ["system", "game ev/s", "game p99", "tpcc txn/s", "tpcc p99",
         "combined/s", "errors"],
        rows,
    )


def _render_elastic(spec, data) -> str:
    lines = [spec.title, ""]
    for system, run in data.items():
        values = [v for _t, v in run["latency_series"]]
        lines.append(
            f"  {system:>10}: mean={mean(values):6.2f} ms  "
            f"peak={max(values) if values else 0:6.2f} ms  "
            f"violations={_sla_field(run['sla'], 'violation_pct'):5.1f}%  "
            f"servers avg={run['avg_servers']:.1f} peak={run['peak_servers']:.0f}  "
            f"clients peak={run['peak_clients']}"
        )
    return "\n".join(lines)


def _render_massive(spec, data) -> str:
    runs = [data] if "contexts" in data else list(data.values())
    lines = [spec.title, ""]
    for run in runs:
        lines.append(
            f"  {run['flavor']:>5}: {run['contexts']:,} contexts "
            f"({run['materialized']:,} materialized) on {run['servers']} "
            f"servers, {run['clients']} clients"
        )
        lines.append(
            f"         {run['throughput_per_s']:,.1f} ev/s  "
            f"p50={run['p50_latency_ms']:.2f} ms  "
            f"p99={run['p99_latency_ms']:.2f} ms  "
            f"sampling={run['sampling']}  errors={run['errors']}"
        )
        lines.append(f"         checksum {run['checksum'][:16]}…")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# The output table
# ----------------------------------------------------------------------
#: ``ScenarioSpec.output`` → ``(assemble, render)``.
OUTPUTS: Dict[str, Tuple[Callable, Callable]] = {
    "curve": (_assemble_curve, _render_grid_curve),
    "xy": (_assemble_xy, _render_xy_curve),
    "runs": (_assemble_by_first_key, _render_fig10),
    "elastic": (_assemble_by_first_key, _render_elastic),
    "mixed": (_assemble_by_first_key, _render_mixed),
    "partition_recovery": (_assemble_by_first_key, _render_partition_recovery),
    "fig7": (_assemble_fig7, _render_fig7),
    "table1": (_assemble_table1, _render_table1),
    "fig8": (_assemble_fig8, _render_fig8),
    "fig9": (_assemble_fig9, _render_fig9),
    "fig11": (_assemble_fig11, _render_fig11),
    "ablation": (_assemble_ablation, _render_ablation),
    "split_brain": (_assemble_split_brain, _render_split_brain),
    "churn_sweep": (_assemble_churn_sweep, _render_churn_sweep),
    "massive": (_assemble_massive, _render_massive),
}


def _output(spec: ScenarioSpec) -> Tuple[Callable, Callable]:
    try:
        return OUTPUTS[spec.output]
    except KeyError:
        raise ScenarioError(
            f"scenario {spec.name!r}: unknown output {spec.output!r}; pick "
            f"from {', '.join(sorted(OUTPUTS))}"
        ) from None


def assemble_scenario(spec: ScenarioSpec, cells, results):
    """Assemble cell results (in cell order) into the figure data."""
    return _output(spec)[0](spec, cells, results)


def render_scenario(spec: ScenarioSpec, data) -> str:
    """Human-readable rendering of a scenario's assembled data."""
    return _output(spec)[1](spec, data)


def _jsonable(value: Any) -> Any:
    """Recursively convert experiment results to JSON-encodable data."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _jsonable(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)
