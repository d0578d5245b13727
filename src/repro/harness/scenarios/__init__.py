"""Declarative scenario API: specs, a registry, and composable sweeps.

Every experiment in this repository — the paper's figures and anything
you invent — is described by a frozen, picklable :class:`ScenarioSpec`:
the application (:attr:`~ScenarioSpec.app`), the systems under test,
the cluster shape, the workload, the fault schedule, the sizing
(scale/seed/duration) and the metrics/output shape.  The engine turns a
spec into results in three steps:

* :func:`expand` enumerates the spec's sweep axes (systems × server
  counts × seeds × user-declared axes) into independent
  :class:`~repro.exec.Cell`\\ s;
* :func:`run_point` (the generic cell body) wires a testbed,
  application, clients and fault machinery from the spec and runs one
  sweep point;
* :func:`run_scenario` executes the cells (serially or across worker
  processes, on a :class:`~repro.harness.runner.CellPool`) and
  assembles the figure data with the spec's :data:`OUTPUTS` entry.

Scenarios register under a name with the :func:`scenario` decorator;
``--scenario NAME`` / ``--list-scenarios`` / ``--set key=value`` on the
CLI (``python -m repro.harness.experiments``) drive any of them.  The
paper's eleven figures are the specs registered with ``paper=True``
(:data:`PAPER_FIGURES`: what ``--figure`` accepts and ``--all`` runs);
their quick-scale JSON is pinned by ``tests/test_scenarios.py`` against
``tests/data/figures_quick_seed0.json``.

The package's modules: ``spec`` (sizing presets, spec dataclasses,
registry), ``sweep`` (expansion, ``--set`` folding, :func:`run_scenario`),
``drivers`` (:func:`run_point` and its drivers), ``cells`` (the custom
cell bodies), ``output`` (:data:`OUTPUTS`) and ``figures`` (the
registrations).  Every built-in ``Cell.fn`` names a public name of this
package, so moving code between the modules moves no cell key.

Authoring guide (a new scenario in under 20 lines): docs/SCENARIOS.md.
"""

# Registers the built-in scenarios.  It must come before PAPER_FIGURES
# is imported below: register() rebinds that tuple in .spec.
from . import figures
from .cells import (
    ablation_cell, elastic_cell, fig8_cell, fig9_cell, massive_game_cell,
    massive_tpcc_cell,
)
from .drivers import run_point
from .output import OUTPUTS, assemble_scenario, fig10_phases, render_scenario
from .spec import (
    PAPER_FIGURES, REGISTRY, SCALES, ElasticSpec, FaultSpec, GameSpec, Scale,
    ScenarioError, ScenarioSpec, TpccSpec, WorkloadSpec, get_scenario,
    list_scenarios, register, scenario,
)
from .sweep import apply_overrides, expand, prepare_scenario, run_scenario, sweep_axes

__all__ = [
    "Scale",
    "SCALES",
    "GameSpec",
    "TpccSpec",
    "WorkloadSpec",
    "FaultSpec",
    "ElasticSpec",
    "ScenarioSpec",
    "ScenarioError",
    "scenario",
    "register",
    "get_scenario",
    "list_scenarios",
    "REGISTRY",
    "PAPER_FIGURES",
    "sweep_axes",
    "expand",
    "apply_overrides",
    "prepare_scenario",
    "run_point",
    "run_scenario",
    "OUTPUTS",
    "assemble_scenario",
    "render_scenario",
    "fig10_phases",
    "elastic_cell",
    "fig8_cell",
    "fig9_cell",
    "ablation_cell",
    "massive_game_cell",
    "massive_tpcc_cell",
]
