"""Simulation driver: scenario specs, world building, and week runs.

The five scenario specs mirror the paper's five datasets (Table I); a
scenario builds a self-contained world (CDN + vantage point + workload) and
the engine pushes a simulated week of requests through it, producing the
flow-level dataset the analysis pipeline consumes.
"""

from repro.sim.seeding import derive_seed
from repro.sim.scenarios import (
    DATASET_NAMES,
    ScenarioSpec,
    ScenarioWorld,
    build_world,
)
from repro.sim.engine import RequestProcessor, SimulationResult, run_requests
from repro.sim.driver import run_all, run_scenario


def __getattr__(name: str):
    # PEP 562: PAPER_SCENARIOS materialises from repro.spec.registry, which
    # itself imports this package for ScenarioSpec.  Re-exporting it lazily
    # keeps `from repro.sim import PAPER_SCENARIOS` working without forcing
    # the registry to load mid-way through this module's own import.
    if name == "PAPER_SCENARIOS":
        from repro.sim import scenarios

        return scenarios.PAPER_SCENARIOS
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "derive_seed",
    "DATASET_NAMES",
    "PAPER_SCENARIOS",
    "ScenarioSpec",
    "ScenarioWorld",
    "build_world",
    "RequestProcessor",
    "SimulationResult",
    "run_requests",
    "run_all",
    "run_scenario",
]
