"""High-level drivers: run one scenario or the whole five-dataset study.

Runs are memoised at two levels.  In-process, by full parameter tuple:
tests and the per-figure benchmarks all analyse the same simulated week,
exactly like the paper's authors analysing one set of collected traces
many times.  On disk, through the artifact store
(:mod:`repro.artifacts`): a warm re-run — another process, another day —
loads the pickled week instead of resimulating it, and pool workers
share the cache through the filesystem.
"""

from __future__ import annotations

import sys
from typing import Dict, Optional, Tuple

from repro import obs
from repro.artifacts.memo import memoized_stage
from repro.defaults import DATASET_NAMES
from repro.sim.specs import PAPER_SCENARIOS, ScenarioSpec
from repro.sim.week import SimulationResult
from repro.trace.records import WEEK_S

#: Default volume scale used by tests/benchmarks; preserves all shapes at
#: roughly 2 % of the paper's traffic.
DEFAULT_SCALE = 0.02

_CACHE: Dict[Tuple, SimulationResult] = {}


def __getattr__(name: str):
    """``build_world`` and ``run_requests``, imported on first use.

    They load the whole simulator, which a study whose weeks are all
    cached never runs.  Once looked up (or patched) they are plain
    module attributes.
    """
    if name == "build_world":
        from repro.sim.scenarios import build_world as value
    elif name == "run_requests":
        from repro.sim.engine import run_requests as value
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def run_scenario(
    name: str,
    scale: float = DEFAULT_SCALE,
    seed: int = 7,
    duration_s: float = WEEK_S,
    policy_kind: str = "preferred",
    use_cache: bool = True,
) -> SimulationResult:
    """Simulate one dataset's week.

    Args:
        name: Dataset name from :data:`~repro.sim.specs.PAPER_SCENARIOS`.
        scale: Traffic volume scale (1.0 = paper scale).
        seed: Master seed.
        duration_s: Collection window.
        policy_kind: ``"preferred"`` or ``"proportional"`` (ablation).
        use_cache: Reuse a previous identical run in this process.

    Returns:
        The :class:`~repro.sim.week.SimulationResult`.

    Raises:
        KeyError: For unknown dataset names.
    """
    spec = PAPER_SCENARIOS.get(name)
    if spec is None:
        raise KeyError(f"unknown dataset {name!r}; expected one of {DATASET_NAMES}")
    return run_spec(spec, scale, seed, duration_s, policy_kind, use_cache)


def run_spec(
    spec: ScenarioSpec,
    scale: float = DEFAULT_SCALE,
    seed: int = 7,
    duration_s: float = WEEK_S,
    policy_kind: str = "preferred",
    use_cache: bool = True,
) -> SimulationResult:
    """Simulate an arbitrary scenario spec (see :func:`run_scenario`)."""
    key = (spec, scale, seed, duration_s, policy_kind)
    if use_cache and key in _CACHE:
        return _CACHE[key]
    result = simulate_week(spec, scale, seed, duration_s, policy_kind)
    if use_cache:
        _CACHE[key] = result
    return result


@memoized_stage("sim/run_week")
def simulate_week(
    spec: ScenarioSpec,
    scale: float,
    seed: int,
    duration_s: float,
    policy_kind: str,
) -> SimulationResult:
    """Build a scenario's world and run its week (disk-memoized).

    This is the study's most expensive pure stage, so it is the cache's
    anchor: every entry point — :func:`run_spec`, :func:`run_all` tasks,
    what-if variants and sweep grid points — keys the same
    ``"sim/run_week"`` artifacts, so a week simulated by any of them is a
    warm hit for all of them.  ``build_world`` and ``run_requests`` are
    looked up in this module on every call, so a caller can patch them
    here to time the two halves.
    """
    module = sys.modules[__name__]
    with obs.span("sim/build", layer="sim.build", dataset=spec.name):
        world = module.build_world(spec, scale=scale, seed=seed, duration_s=duration_s,
                                   policy_kind=policy_kind)
    return module.run_requests(world)


def run_all(
    scale: float = DEFAULT_SCALE,
    seed: int = 7,
    duration_s: float = WEEK_S,
    policy_kind: str = "preferred",
    names: Optional[Tuple[str, ...]] = None,
) -> Dict[str, SimulationResult]:
    """Simulate every dataset of the study.

    The five vantage points' weeks are independent (each world derives all
    of its randomness from its own scenario name), so the weeks missing
    from the in-process memo go through :func:`simulate_week`'s cached
    fan-out: disk hits are read here, and the rest run one task per
    dataset, byte-identical in a pool or in-process.  Results land in the
    in-process memo cache either way.

    Returns:
        Mapping from dataset name to its result, in the paper's order.
    """
    selected = names if names is not None else DATASET_NAMES
    for name in selected:
        if name not in PAPER_SCENARIOS:
            raise KeyError(f"unknown dataset {name!r}; expected one of {DATASET_NAMES}")
    keys = {
        name: (PAPER_SCENARIOS[name], scale, seed, duration_s, policy_kind)
        for name in selected
    }
    pending = [name for name in selected if keys[name] not in _CACHE]
    if pending:
        with obs.span("sim/run_all", datasets=len(pending), scale=scale):
            fresh, _ = simulate_week.map(
                [keys[name] for name in pending], labels=pending
            )
        for name, result in zip(pending, fresh):
            _CACHE[keys[name]] = result
    return {name: _CACHE[keys[name]] for name in selected}


def clear_cache() -> None:
    """Drop all memoised runs (tests use this to control memory)."""
    _CACHE.clear()
