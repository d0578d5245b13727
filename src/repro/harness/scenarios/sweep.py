"""Sweep expansion, ``--set`` folding and the one-call driver.

:func:`expand` turns a spec's sweep axes into independent
:class:`~repro.exec.Cell`\\ s, :func:`apply_overrides` folds ``--set
key=value`` strings into a spec, and :func:`run_scenario` runs a
scenario end to end: prepare, expand, execute on a
:class:`~repro.harness.runner.CellPool`, assemble.
"""

from __future__ import annotations

import dataclasses
from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ...exec import Cell
from ...results.store import open_store
from ..runner import CellPool
from .output import assemble_scenario
from .spec import _SCN, SCALES, Scale, ScenarioError, ScenarioSpec, get_scenario

#: Axes whose empty value tuple pulls a per-scale default.
_SCALE_AXIS_DEFAULTS: Dict[str, str] = {
    "n_servers": "server_counts",
    "clients": "client_sweep",
}


def _axis_values(name: str, values: Tuple[Any, ...], sizing: Scale) -> Tuple:
    if values:
        return tuple(values)
    attr = _SCALE_AXIS_DEFAULTS.get(name)
    if attr is None:
        raise ScenarioError(f"axis {name!r} has no values and no scale default")
    return tuple(getattr(sizing, attr))


def _validate(spec: ScenarioSpec) -> None:
    """Reject what expansion would otherwise silently throw away:
    ``server_counts`` beside a fixed fleet, ``systems`` other than the
    ones explicit ``points`` run, and multi-seed sweeps the assembly
    cannot combine (only curve assembly averages seed replicas; custom
    cells shard via their own axes, as fig7/table1 do with ``rep``)."""
    if spec.servers and spec.server_counts:
        raise ScenarioError(
            f"scenario {spec.name!r} runs a fixed fleet of {spec.servers} "
            f"servers, so server_counts {spec.server_counts} would be ignored"
        )
    named = {value for point in spec.points for key, value in point if key == "system"}
    if named and named != set(spec.systems):
        raise ScenarioError(
            f"scenario {spec.name!r}: its explicit points run "
            f"{', '.join(sorted(named))}, so systems "
            f"{', '.join(spec.systems)} cannot select among them"
        )
    if len(spec.seeds) <= 1:
        return
    if spec.cell:
        raise ScenarioError(
            f"scenario {spec.name!r} does not support multi-seed sweeps; "
            f"shard repetitions via its axes instead (e.g. --set rep=0,1,2)"
        )
    if spec.points or spec.output != "curve":
        raise ScenarioError(
            f"scenario {spec.name!r} (output {spec.output!r}) does not "
            f"support multi-seed sweeps; only 'curve' outputs average "
            f"across seeds"
        )


def sweep_axes(spec: ScenarioSpec) -> List[Tuple[str, Tuple]]:
    """The spec's ordered sweep axes: ``[(axis_name, values), ...]``.

    Generic (``spec.cell == ""``) scenarios sweep ``system`` first, then
    ``n_servers`` when no fixed fleet is set, then the user-declared
    ``spec.axes``, then ``seed`` when more than one seed is given.
    Custom-cell scenarios sweep exactly ``spec.axes``.
    """
    sizing = SCALES[spec.scale]
    _validate(spec)
    axes: List[Tuple[str, Tuple]] = []
    if not spec.cell:
        axes.append(("system", tuple(spec.systems)))
        if spec.servers == 0:
            axes.append(("n_servers", _axis_values("n_servers", spec.server_counts, sizing)))
    for name, values in spec.axes:
        axes.append((name, _axis_values(name, tuple(values), sizing)))
    if not spec.cell and len(spec.seeds) > 1:
        axes.append(("seed", tuple(spec.seeds)))
    return axes


def _sweep_points(spec: ScenarioSpec) -> List[Tuple[Tuple[str, Any], ...]]:
    """All sweep points as ``((axis, value), ...)`` tuples, in cell order."""
    if spec.points:
        return [tuple(point) for point in spec.points]
    points: List[Tuple[Tuple[str, Any], ...]] = [()]
    for name, values in sweep_axes(spec):
        points = [point + ((name, value),) for point in points for value in values]
    return points


def expand(spec: ScenarioSpec) -> List[Cell]:
    """Enumerate the spec's sweep into :class:`Cell`\\ s (cell order = data order).

    Generic scenarios produce :func:`run_point` cells carrying the spec
    itself; custom-cell scenarios produce ``spec.cell`` cells whose
    kwargs are the axis values plus ``scale``/``seed`` (matching the
    historical per-figure cell functions byte for byte).
    """
    _validate(spec)
    cells: List[Cell] = []
    for point in _sweep_points(spec):
        key = tuple(value for _name, value in point)
        if spec.cell:
            kwargs: Dict[str, Any] = {name: value for name, value in point}
            kwargs["scale"] = spec.scale
            kwargs["seed"] = spec.seeds[0]
            cells.append(Cell(key, spec.cell, kwargs))
        else:
            kwargs = {"spec": spec}
            kwargs.update({name: value for name, value in point})
            cells.append(Cell(key, f"{_SCN}:run_point", kwargs))
    return cells


# ----------------------------------------------------------------------
# Overrides (--set key=value) and axis-value folding
# ----------------------------------------------------------------------
#: Sub-specs searched (in order) when folding a bare key into the spec.
_SUBSPEC_FIELDS = ("workload", "tpcc_workload", "faults", "elastic", "game", "tpcc")

#: Spec fields that are tuples (a scalar --set value is wrapped).
_TUPLE_FIELDS = {"systems", "seeds", "server_counts", "metrics"}

#: Spec fields --set may not touch (identity/plumbing).  Axis *names*
#: are still settable — they replace that axis's values.
_PROTECTED_FIELDS = {"name", "cell", "axes", "points"}


def _spec_field_names(obj: Any) -> Tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(obj))


def _set_key(spec: ScenarioSpec, key: str, value: Any) -> ScenarioSpec:
    """Fold one ``key=value`` into the spec (axis values use
    :func:`apply_overrides`; this handles spec/sub-spec fields)."""
    if "." in key:
        sub, _, inner = key.partition(".")
        if sub not in _SUBSPEC_FIELDS:
            raise ScenarioError(
                f"unknown sub-spec {sub!r}; pick from {', '.join(_SUBSPEC_FIELDS)}"
            )
        obj = getattr(spec, sub)
        if obj is None:
            raise ScenarioError(f"scenario {spec.name!r} has no {sub} spec to set")
        if inner not in _spec_field_names(obj):
            raise ScenarioError(
                f"unknown field {inner!r} of {sub}; pick from "
                f"{', '.join(_spec_field_names(obj))}"
            )
        return replace(spec, **{sub: replace(obj, **{inner: value})})
    if key in _PROTECTED_FIELDS:
        raise ScenarioError(f"field {key!r} cannot be overridden")
    if key in _spec_field_names(spec):
        if key in _TUPLE_FIELDS and not isinstance(value, tuple):
            value = (value,)
        return replace(spec, **{key: value})
    for sub in _SUBSPEC_FIELDS:
        obj = getattr(spec, sub)
        if obj is not None and key in _spec_field_names(obj):
            return replace(spec, **{sub: replace(obj, **{key: value})})
    valid = sorted(
        set(_spec_field_names(spec)) - _PROTECTED_FIELDS
        | {
            f"{sub}.{name}"
            for sub in _SUBSPEC_FIELDS
            if getattr(spec, sub, None) is not None
            for name in _spec_field_names(getattr(spec, sub))
        }
    )
    raise ScenarioError(
        f"unknown scenario key {key!r} (axes: "
        f"{', '.join(name for name, _v in spec.axes) or 'none'}; fields include: "
        f"{', '.join(valid[:12])}, ...)"
    )


def _parse_value(text: str) -> Any:
    """Parse one ``--set`` value: literals, with commas making a tuple."""
    import ast

    def one(part: str) -> Any:
        part = part.strip()
        try:
            return ast.literal_eval(part)
        except (ValueError, SyntaxError):
            return part

    if "," in text:
        return tuple(one(part) for part in text.split(",") if part.strip() != "")
    return one(text)


def apply_overrides(
    spec: ScenarioSpec, assignments: Sequence[str]
) -> ScenarioSpec:
    """Apply ``--set key=value`` strings to a spec, returning the new spec.

    ``key`` may name a sweep axis (replacing its values), a spec field
    (``duration_ms``, ``systems``, ...), a sub-spec field searched in
    order (``mtbf_ms`` → ``faults.mtbf_ms``), or a dotted sub-spec path
    (``workload.think_ms``).  Unknown keys raise :class:`ScenarioError`.
    """
    for raw in assignments:
        key, sep, text = raw.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ScenarioError(f"--set expects key=value, got {raw!r}")
        value = _parse_value(text)
        if key in [name for name, _values in spec.axes]:
            values = value if isinstance(value, tuple) else (value,)
            spec = replace(
                spec,
                axes=tuple(
                    (name, values if name == key else old)
                    for name, old in spec.axes
                ),
            )
        else:
            spec = _set_key(spec, key, value)
    return spec


# ----------------------------------------------------------------------
# The one-call driver
# ----------------------------------------------------------------------
def prepare_scenario(
    scenario: Any,
    scale: Optional[str] = None,
    seed: Optional[int] = None,
    overrides: Sequence[str] = (),
) -> ScenarioSpec:
    """Resolve a name/spec and apply scale/seed/``--set`` overrides."""
    spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
    if scale is not None:
        spec = replace(spec, scale=scale)
    if spec.scale not in SCALES:
        raise ScenarioError(
            f"unknown scale {spec.scale!r}; pick from {', '.join(sorted(SCALES))}"
        )
    if seed is not None:
        spec = replace(spec, seeds=(seed,))
    if overrides:
        spec = apply_overrides(spec, overrides)
    return spec


def run_scenario(
    scenario: Any,
    scale: Optional[str] = None,
    seed: Optional[int] = None,
    jobs: int = 1,
    overrides: Sequence[str] = (),
    cache: Optional[str] = "off",
    cache_dir: Optional[Any] = None,
) -> Any:
    """Run a scenario end to end and return its assembled figure data.

    ``scenario`` is a registered name or a :class:`ScenarioSpec`;
    ``scale``/``seed`` override the spec's sizing; ``overrides`` are
    ``--set``-style ``key=value`` strings; ``jobs`` fans the sweep cells
    out to worker processes (1 = serial, 0 = one per core — data is
    byte-identical at any level; ``REPRO_EXECUTOR`` picks another
    backend, docs/ARCHITECTURE.md § Executors).

    ``cache`` attaches the persistent result store (see
    docs/ARCHITECTURE.md § Result store): ``"auto"`` loads persisted
    cells and persists fresh ones, ``"refresh"`` recomputes everything
    and repopulates, ``"off"`` (the library default — programmatic
    callers stay pure) touches no store.  ``cache_dir`` overrides the
    store directory (default ``.repro_results/`` or
    ``$REPRO_RESULTS_DIR``).
    """
    spec = prepare_scenario(scenario, scale=scale, seed=seed, overrides=overrides)
    cells = expand(spec)
    try:
        store = open_store(cache, cache_dir)
    except ValueError as error:
        raise ScenarioError(str(error)) from None
    with CellPool(jobs, store=store) as pool:
        results = pool.gather(pool.submit(cells))
    return assemble_scenario(spec, cells, results)
