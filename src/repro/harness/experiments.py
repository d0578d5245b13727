"""CLI over the declarative scenario engine.

Every table and figure of the paper's §6 — and every scenario beyond
them — is a registered :class:`~repro.harness.scenarios.ScenarioSpec`
(see :mod:`repro.harness.scenarios` and docs/SCENARIOS.md); library
callers run one with :func:`~repro.harness.scenarios.run_scenario`.
This module is the command line (:func:`main`)::

    python -m repro.harness.experiments --figure fig5a --scale quick
    python -m repro.harness.experiments --all --scale quick --jobs 4
    python -m repro.harness.experiments --list-scenarios
    python -m repro.harness.experiments --scenario churn_sweep \\
        --set mtbf_ms=1000,4000 --jobs 2

``--scenario`` runs any registered scenario — *repeat it* to run a
matrix of scenarios through one shared executor, each with its own
trailing ``--set`` overrides::

    python -m repro.harness.experiments \\
        --scenario churn_sweep --set mtbf_ms=1000 \\
        --scenario churn_sweep --set mtbf_ms=4000 --jobs 2

``--set key=value`` overrides a sweep axis or (sub-)spec field (it
binds to the nearest preceding ``--scenario``; before any, it applies
globally); ``--all`` runs the eleven paper figures on one shared
worker pool (cells stream across figure boundaries — no idle cores
while a straggler finishes).  ``--executor serial|pool|queue`` picks
where cells run (docs/ARCHITECTURE.md § Executors); the queue backend
publishes cells to a ``--queue-dir`` spool that any number of
``python -m repro.exec.worker`` processes drain.

Per-figure reference (knobs, expected wall-clock, how to read each
table): docs/EXPERIMENTS.md.  Scenario authoring: docs/SCENARIOS.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from ..exec import EXECUTORS, ExecutorError, QueueExecutor, WorkerLostError
from ..results.store import open_store, resolve_mode
from .runner import CellPool
from .scenarios import (
    PAPER_FIGURES,
    SCALES,
    ScenarioError,
    _jsonable,
    assemble_scenario,
    expand,
    get_scenario,
    list_scenarios,
    prepare_scenario,
    render_scenario,
)

__all__ = ["main"]


class _MatrixScenario(argparse.Action):
    """``--scenario NAME``: open a new matrix group (repeatable)."""

    def __call__(self, parser, namespace, value, option_string=None):
        # Copy-on-append: never mutate the shared argparse default list
        # (main() runs many times per test process).
        groups = list(getattr(namespace, "matrix", None) or [])
        groups.append((value, []))
        namespace.matrix = groups


class _MatrixSet(argparse.Action):
    """``--set K=V``: bind to the nearest preceding ``--scenario`` group,
    or to the global override list when none is open yet."""

    def __call__(self, parser, namespace, value, option_string=None):
        groups = list(getattr(namespace, "matrix", None) or [])
        if groups:
            name, sets = groups[-1]
            groups[-1] = (name, sets + [value])
            namespace.matrix = groups
        else:
            namespace.overrides = list(
                getattr(namespace, "overrides", None) or []
            ) + [value]


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: run, print and optionally dump selected scenarios.

    Args: ``argv`` overrides ``sys.argv[1:]`` (used by tests).  Returns
    the process exit code: 0 on success, 2 when workers were lost beyond
    recovery (the partial result store stays intact — rerun to resume).
    Flags: ``--figure``/``--all``/``--scenario`` select experiments
    (``--list-scenarios`` prints the registry; ``--scenario`` repeats
    into a matrix sharing one executor), ``--scale`` the sizing preset,
    ``--seed`` the RNG seed, ``--set key=value`` overrides spec fields
    or sweep axes (repeatable; binds to the nearest preceding
    ``--scenario``, else applies globally), ``--jobs`` the
    worker-process count (1 = serial, 0 = one per core; figure data is
    byte-identical at any level; with ``--all`` one pool is shared by
    every figure), ``--executor``/``--queue-*`` the execution backend
    (docs/ARCHITECTURE.md § Executors), ``--json PATH`` dumps
    machine-readable results.  Caching: the CLI defaults to the
    persistent result store in ``.repro_results/`` (``--cache-dir``
    moves it, ``--no-cache`` disables it, ``--refresh`` recomputes and
    repopulates, ``REPRO_CACHE=auto|off|refresh`` sets the default);
    cached results are byte-identical to fresh ones, and a killed
    ``--all`` resumes from the cells it already completed.  Reference:
    docs/EXPERIMENTS.md and docs/SCENARIOS.md.
    """
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--figure", choices=sorted(PAPER_FIGURES), default=None)
    parser.add_argument(
        "--scenario",
        choices=list_scenarios(),
        action=_MatrixScenario,
        dest="matrix",
        help="run any registered scenario (see --list-scenarios); repeat "
        "to run a matrix of scenarios through one shared executor, each "
        "taking its own trailing --set overrides",
    )
    parser.add_argument(
        "--list-scenarios",
        action="store_true",
        help="print every registered scenario and exit",
    )
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--scale", choices=sorted(SCALES), default="quick")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--set",
        dest="overrides",
        action=_MatrixSet,
        metavar="KEY=VALUE",
        help="override a sweep axis or (sub-)spec field of the selected "
        "scenario, e.g. --set mtbf_ms=1000,4000 or --set faults.lease_ms=500 "
        "(repeatable; binds to the nearest preceding --scenario, else "
        "applies to the single selected scenario)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for independent experiment cells "
        "(1 = serial, 0 = one per CPU core; results are byte-identical; "
        "with --all the pool is shared across figures)",
    )
    parser.add_argument(
        "--executor",
        choices=EXECUTORS,
        default=None,
        help="cell-execution backend: serial (in-process), pool (local "
        "worker processes, retries lost workers), queue (spool-dir work "
        "queue drained by 'python -m repro.exec.worker' processes); "
        "default: $REPRO_EXECUTOR, else picked from --jobs",
    )
    parser.add_argument(
        "--queue-dir",
        metavar="PATH",
        default=None,
        help="queue backend spool directory (default: $REPRO_QUEUE_DIR "
        "or .repro_queue); implies --executor queue",
    )
    parser.add_argument(
        "--queue-workers",
        type=int,
        default=0,
        metavar="N",
        help="spawn N local queue workers for the run (default 0: rely "
        "on externally launched workers)",
    )
    parser.add_argument(
        "--queue-lease",
        type=float,
        default=None,
        metavar="S",
        help="seconds before a claimed cell with a stale worker "
        "heartbeat is re-queued (default 30)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the figure data (machine-readable) to this file",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        default=None,
        help="persistent result store directory (default: "
        "$REPRO_RESULTS_DIR or .repro_results); maintain it with "
        "'python -m repro.results'",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="run without the persistent result store (neither load nor save)",
    )
    parser.add_argument(
        "--refresh",
        action="store_true",
        help="recompute every cell and overwrite its store entry",
    )
    parser.set_defaults(matrix=[], overrides=[])
    args = parser.parse_args(argv)
    if args.no_cache and args.refresh:
        parser.error("--no-cache and --refresh are mutually exclusive")

    if args.list_scenarios:
        width = max(len(name) for name in list_scenarios())
        for name in list_scenarios():
            spec = get_scenario(name)
            marker = "*" if name in PAPER_FIGURES else " "
            print(f"{marker} {name:<{width}}  {spec.description or spec.title}")
        print("\n(* = part of --all; others run via --scenario NAME)")
        return 0

    selectors = sum(bool(s) for s in (args.matrix, args.all, args.figure))
    if selectors > 1:
        parser.error("pick one of --scenario, --figure or --all")
    # (display name, scenario name, overrides) per run; repeats of one
    # scenario render as name@2, name@3, ... in output and --json.
    if args.matrix:
        seen: Dict[str, int] = {}
        chosen = []
        for name, sets in args.matrix:
            seen[name] = seen.get(name, 0) + 1
            display = name if seen[name] == 1 else f"{name}@{seen[name]}"
            chosen.append((display, name, list(args.overrides) + sets))
    elif args.all:
        if args.overrides:
            parser.error(
                "--set requires a single scenario (--scenario or --figure)"
            )
        chosen = [(name, name, []) for name in sorted(PAPER_FIGURES)]
    else:
        name = args.figure or "fig5a"
        chosen = [(name, name, list(args.overrides))]

    executor_options: Dict[str, Any] = {}
    if args.queue_workers:
        executor_options["spawn_workers"] = args.queue_workers
    if args.queue_lease is not None:
        executor_options["lease_timeout_s"] = args.queue_lease

    results: Dict[str, Any] = {}
    try:
        store = open_store(
            resolve_mode(args.no_cache, args.refresh, args.cache_dir),
            args.cache_dir,
        )
    except ValueError as error:
        parser.error(str(error))
    try:
        with CellPool(
            args.jobs,
            store=store,
            executor=args.executor,
            queue_dir=args.queue_dir,
            executor_options=executor_options,
        ) as pool:
            # Expand and enqueue every chosen scenario up front: cells
            # stream through one shared pool, so workers never idle at a
            # figure boundary waiting for a straggler cell.
            plans = []
            for display, name, overrides in chosen:
                spec = prepare_scenario(
                    name, scale=args.scale, seed=args.seed,
                    overrides=overrides,
                )
                cells = expand(spec)
                plans.append((display, spec, cells, pool.submit(cells)))
            for display, spec, cells, handles in plans:
                data = assemble_scenario(spec, cells, pool.gather(handles))
                results[display] = data
                print(render_scenario(spec, data))
                print()
            backend = pool.executor
    except ScenarioError as error:
        parser.error(str(error))
    except ExecutorError as error:
        print(f"executor error: {error}", file=sys.stderr)
        if isinstance(error, WorkerLostError) and error.cells:
            for key in error.cells:
                print(f"  lost cell: {key}", file=sys.stderr)
        if store is not None:
            print(
                f"completed cells are persisted in {store.root}; "
                "rerun to resume from them",
                file=sys.stderr,
            )
        return 2
    if isinstance(backend, QueueExecutor):
        stats = backend.stats()
        print(
            f"queue executor: {stats['completed']} cells via "
            f"{stats['workers']} worker(s), {stats['reclaims']} lease "
            f"reclaim(s), {stats['speculations']} speculative dispatch(es)"
        )
    if store is not None:
        total = store.hits + store.misses
        pct = 100.0 * store.hits / total if total else 0.0
        print(
            f"result store: {store.hits}/{total} cache hits ({pct:.0f}%), "
            f"{store.misses} computed -> {store.root}"
        )
    if args.json:
        payload = {
            "scale": args.scale,
            "seed": args.seed,
            "experiments": _jsonable(results),
        }
        if store is not None:
            payload["cache"] = {
                "dir": str(store.root),
                "hits": store.hits,
                "misses": store.misses,
            }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
