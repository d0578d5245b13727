"""Experiment harness: declarative scenarios driving every figure."""

from .runner import CellPool, RunResult, SYSTEMS, Testbed, make_testbed, run_game
from .scenarios import (
    ScenarioSpec,
    get_scenario,
    list_scenarios,
    run_scenario,
    scenario,
)

__all__ = [
    "ALL_EXPERIMENTS",
    "render",
    "CellPool",
    "RunResult",
    "SYSTEMS",
    "Testbed",
    "make_testbed",
    "run_game",
    "ScenarioSpec",
    "get_scenario",
    "list_scenarios",
    "run_scenario",
    "scenario",
]


def __getattr__(name: str):
    # Resolved on first use: an eager import would put .experiments in
    # sys.modules before ``python -m repro.harness.experiments`` runs it
    # as ``__main__`` — a RuntimeWarning on every CLI run.
    if name in ("ALL_EXPERIMENTS", "render"):
        from . import experiments

        return getattr(experiments, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
