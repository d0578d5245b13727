"""Assembly and rendering: cell results → figure data → text.

A spec's ``output`` names one :data:`OUTPUTS` entry, an ``(assemble,
render)`` pair: ``assemble(spec, cells, results)`` turns the results
(in cell order) into the figure data, and ``render(spec, data)`` turns
that into the text the CLI prints.  Most entries are one of two shared
shapes: :func:`_keyed` (one value per cell, labelled by its key) and
:func:`_table` (one aligned table, a row per run, declared as a column
list).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Sequence, Tuple

from ...sim.metrics import mean
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


def _keyed(label: Callable[[Tuple], str]) -> Callable:
    """The assembler ``{label(cell.key): value}``, in cell order."""

    def assemble(spec, cells, results):
        return {label(cell.key): r.value for cell, r in zip(cells, results)}

    return assemble


_by_first_key = _keyed(lambda key: key[0])


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


def _assemble_split_brain(spec, cells, results):
    """``{"fenced"/"unfenced": run}`` plus the lost-updates invariant.

    The invariant the scenario exists to prove: **zero** lost updates
    with fencing on (the step-down flush preserves every acked write),
    a **nonzero** count with fencing off (restore rolls back to the
    last periodic checkpoint while the old owner was still serving).
    """
    by_mode = _keyed(lambda key: "fenced" if key[1] else "unfenced")
    runs = by_mode(spec, cells, results)
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
    return _keyed(lambda key: f"rep{key[0]}")(spec, cells, results)


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
                "lost_work": run["slo"]["lost_work"],
                "checkpoint_bytes_written": run["checkpoint_bytes_written"],
            }
        )
    return {"window_ms": spec.faults.window_ms, "rows": rows, "runs": runs}


# ----------------------------------------------------------------------
# Rendering: figure data -> text
# ----------------------------------------------------------------------
def format_table(
    title: str,
    columns: Sequence[str],
    rows: Sequence[Sequence[object]],
) -> str:
    """Render an aligned text table with a title line (floats to 2 places)."""
    headers = [str(column) for column in columns]
    body = [[f"{v:.2f}" if isinstance(v, float) else str(v) for v in row]
            for row in rows]
    widths = [
        max([len(header)] + [len(row[i]) for row in body])
        for i, header in enumerate(headers)
    ]

    def line(values: Sequence[str]) -> str:
        return "  ".join(value.ljust(width) for value, width in zip(values, widths))

    return "\n".join(
        [title, "", line(headers), line(["-" * w for w in widths])]
        + [line(row) for row in body]
    )


def _field(record: Any, path: str) -> Any:
    for name in path.split("."):
        record = record[name]
    return record


def _table(first_header: str, columns: Sequence[Tuple], rows: Callable = dict.items):
    """The renderer of a one-table figure: one row per ``(label, record)``
    pair of ``rows(data)``.

    A column is ``(header, field)`` or ``(header, field, digits)``:
    ``field`` is a dotted path into the record or a function of it, and
    ``digits`` rounds the value with ``round(value, digits)`` (``None``
    rounds to an int).
    """

    def render(spec, data) -> str:
        body = []
        for label, record in rows(data):
            row = [label]
            for _header, field, *digits in columns:
                value = field(record) if callable(field) else _field(record, field)
                row.append(round(value, *digits) if digits else value)
            body.append(row)
        return format_table(
            spec.title, [first_header] + [column[0] for column in columns], body
        )

    return render


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


def _latency_line(label: str, width: int, run) -> str:
    """One elastic run's latency summary: mean, peak, SLA violations.

    ``run["sla"]`` is a SlaReport or, for aggregated reps, a dict.
    """
    values = [v for _t, v in run["latency_series"]]
    sla = run["sla"]
    pct = sla["violation_pct"] if isinstance(sla, dict) else sla.violation_pct
    return (
        f"  {label:>{width}}: mean={mean(values):6.2f} ms  "
        f"peak={max(values) if values else 0:6.2f} ms  "
        f"violations={pct:5.1f}%"
    )


def _render_fig7(spec, data) -> str:
    lines = [_latency_line(setup, 8, run) for setup, run in data.items()]
    return "\n".join([spec.title, ""] + lines)


def _render_elastic(spec, data) -> str:
    lines = [
        _latency_line(system, 10, run)
        + f"  servers avg={run['avg_servers']:.1f} peak={run['peak_servers']:.0f}"
        + f"  clients peak={run['peak_clients']}"
        for system, run in data.items()
    ]
    return "\n".join([spec.title, ""] + lines)


def _render_fig8(spec, data) -> str:
    lines = [spec.title, ""]
    for label, points in data.items():
        values = [v for _t, v in points]
        steady = mean(values[:4]) if len(values) >= 4 else mean(values)
        dip = min(values) if values else 0.0
        lines.append(f"  {label:>12}: steady={steady:7.1f}/s  dip={dip:7.1f}/s")
    return "\n".join(lines)


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


def _mean_detect_ms(run) -> float:
    detections = run["detections"]
    return mean([d["latency_ms"] for d in detections if d["latency_ms"] is not None])


_render_fig11_table = _table(
    "system",
    [
        ("avail %", "slo.availability_pct", 1),
        ("base ev/s", "slo.baseline_goodput_per_s", 1),
        ("target ev/s", "slo.goodput_target_per_s", 1),
        ("detect ms", "mean_detection_latency_ms", 1),
        ("ctx restored", "contexts_recovered"),
        ("failed", "events_failed"),
        ("lost work", "slo.lost_work"),
        ("ckpts", "checkpoints_taken"),
        ("skipped", "checkpoints_skipped"),
        ("ckpt bytes", "checkpoint_bytes_written"),
    ],
    rows=lambda data: [
        *data["systems"].items(), ("aeon (full ckpt)", data["aeon_full"])
    ],
)


def _render_fig11(spec, data) -> str:
    delta_bytes = data["systems"]["aeon"]["checkpoint_bytes_written"]
    full_bytes = data["aeon_full"]["checkpoint_bytes_written"]
    saving = 100.0 * (1.0 - delta_bytes / full_bytes) if full_bytes else 0.0
    return (
        _render_fig11_table(spec, data)
        + f"\n\ndelta checkpoints: {delta_bytes:,} bytes vs full "
        + f"{full_bytes:,} bytes ({saving:.1f}% saved on identical churn)"
    )


_render_split_brain_table = _table(
    "mode",
    [
        ("lost upd", "lost_updates"),
        ("fenced wr", "fenced_writes"),
        ("flush rst", "flush_restores"),
        ("ctx restored", "contexts_recovered"),
        ("false det", "false_detections"),
        ("failed", "events_failed"),
        ("retries", "client_retries"),
    ],
    rows=lambda data: [
        (label, data["runs"][label])
        for label in ("fenced", "unfenced")
        if label in data["runs"]
    ],
)


def _render_split_brain(spec, data) -> str:
    inv = data["invariant"]
    return (
        _render_split_brain_table(spec, data)
        + f"\n\nzero lost updates with fencing: {inv['zero_loss_with_fencing']}"
        + f"; lost updates without fencing: {inv['unfenced_lost_updates']}"
    )


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
    "runs": (_by_first_key, _table("system", [
        ("pre-crash", lambda run: fig10_phases(run)["pre"], 1),
        ("outage", lambda run: fig10_phases(run)["outage"], 1),
        ("recovered", lambda run: fig10_phases(run)["post"], 1),
        ("detect ms", _mean_detect_ms, 1),
        ("ctx restored", "contexts_recovered"),
        ("failed", "events_failed"),
        ("lost work", "lost_work"),
    ])),
    "elastic": (_by_first_key, _render_elastic),
    "mixed": (_by_first_key, _table("system", [
        ("game ev/s", "game.throughput_per_s", 1),
        ("game p99", "game.p99_latency_ms", 2),
        ("tpcc txn/s", "tpcc.throughput_per_s", 1),
        ("tpcc p99", "tpcc.p99_latency_ms", 2),
        ("combined/s", "combined.throughput_per_s", 1),
        ("errors", lambda run: run["game_errors"] + run["tpcc_errors"]),
    ])),
    "partition_recovery": (_by_first_key, _table("system", [
        ("cut ms", "partition_at_ms", 1),
        ("heal ms", "partition_heal_ms", 1),
        ("lost upd", "lost_updates"),
        ("flush rst", "flush_restores"),
        ("ctx restored", "contexts_recovered"),
        ("false det", "false_detections"),
        ("failed", "events_failed"),
    ])),
    "fig7": (_assemble_fig7, _render_fig7),
    "table1": (_assemble_table1, _table(
        "setup",
        [("% requests > SLA", "violation_pct", 1), ("avg servers", "avg_servers", 1),
         ("requests", "requests")],
        rows=lambda data: [(row["setup"], row) for row in data],
    )),
    "fig8": (_keyed(lambda key: f"{key[0]} contexts"), _render_fig8),
    "fig9": (
        _assemble_fig9, _table("instance", [("1KB", "1KB", 1), ("1MB", "1MB", 1)])
    ),
    "fig11": (_assemble_fig11, _render_fig11),
    "ablation": (
        _keyed(lambda key: "chain-release" if key[0] else "hold-till-commit"),
        _table("mode", [("events/s", lambda value: value, 1)]),
    ),
    "split_brain": (_assemble_split_brain, _render_split_brain),
    "churn_sweep": (_assemble_churn_sweep, _table(
        "system",
        [
            ("MTBF ms", "mtbf_ms", None),
            ("crashes", "crashes"),
            ("avail %", "availability_pct", 1),
            ("detect ms", "mean_detection_latency_ms", 1),
            ("ctx restored", "contexts_recovered"),
            ("failed", "events_failed"),
            ("lost work", "lost_work"),
            ("ckpt bytes", "checkpoint_bytes_written"),
        ],
        rows=lambda data: [(row["system"], row) for row in data["rows"]],
    )),
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
