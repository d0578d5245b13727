"""Experiment harness: declarative scenarios driving every figure."""

from .runner import CellPool, RunResult, SYSTEMS, Testbed, make_testbed, run_closed_loop
from .scenarios import (
    ScenarioSpec,
    get_scenario,
    list_scenarios,
    run_scenario,
    scenario,
)

__all__ = [
    "CellPool",
    "RunResult",
    "SYSTEMS",
    "Testbed",
    "make_testbed",
    "run_closed_loop",
    "ScenarioSpec",
    "get_scenario",
    "list_scenarios",
    "run_scenario",
    "scenario",
]

