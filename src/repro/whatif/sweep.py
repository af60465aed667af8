"""Parameter sweeps: dose-response curves over a scenario knob.

Where :mod:`repro.whatif.compare` contrasts discrete variants, a sweep
varies one :class:`~repro.sim.scenarios.ScenarioSpec` field over a value
grid and traces how a metric responds — e.g. how EU2's local-serve share
falls as the in-ISP data center's DNS budget shrinks, or how the miss rate
rises as regional replication thins out.

A sweep is the degenerate one-axis case of a scenario grid, and since the
spec layer it is implemented as exactly that: :func:`sweep_parameter`
builds a single-axis :class:`~repro.spec.grid.GridSpec` and runs it
through :func:`~repro.spec.runner.run_grid`.  Labels and artifact keys
are unchanged, so pre-grid sweep caches stay warm and a sweep point is a
warm hit for any grid containing it (and vice versa).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.exec.executor import ParallelExecutor
from repro.reporting.series import Series
from repro.sim.scenarios import PAPER_SCENARIOS, ScenarioSpec
from repro.trace.records import WEEK_S
from repro.whatif.metrics import ScenarioMetrics

@dataclass
class SweepResult:
    """One sweep's outcome.

    Attributes:
        scenario_name: The swept scenario.
        parameter: The swept spec field.
        values: Grid values, in input order.
        metrics: Full metric rows per grid point.
    """

    scenario_name: str
    parameter: str
    values: List[float] = field(default_factory=list)
    metrics: List[ScenarioMetrics] = field(default_factory=list)

    def series(self, metric: str) -> Series:
        """One metric as a (parameter value, metric value) series.

        Args:
            metric: A :class:`~repro.whatif.metrics.ScenarioMetrics`
                attribute name.

        Raises:
            AttributeError: For unknown metric names.
        """
        series = Series(label=f"{self.scenario_name}: {metric} vs {self.parameter}")
        for value, row in zip(self.values, self.metrics):
            series.append(float(value), float(getattr(row, metric)))
        return series


def check_parameter(parameter: str) -> None:
    """Reject a sweep parameter that names no :class:`ScenarioSpec` field.

    Raises:
        ValueError: For unknown spec fields.
    """
    field_names = {f.name for f in dataclasses.fields(ScenarioSpec)}
    if parameter not in field_names:
        raise ValueError(f"ScenarioSpec has no field {parameter!r}")


def sweep_parameter(
    scenario_name: str,
    parameter: str,
    values: Sequence[float],
    scale: float = 0.008,
    seed: int = 7,
    duration_s: float = WEEK_S,
    policy_kind: str = "preferred",
    executor: Optional[ParallelExecutor] = None,
) -> SweepResult:
    """Sweep one spec field over a value grid.

    Grid points differ only in the swept knob and never interact, so they
    fan out over the executor — one simulated week per task, identical
    metric rows on every backend.  Rows are disk-memoized
    (``"whatif/metrics"``): a re-sweep over an extended grid only
    simulates the new points.

    Args:
        scenario_name: One of the paper scenarios.
        parameter: The :class:`ScenarioSpec` field to vary (must exist).
        values: Grid values (assigned verbatim to the field).
        scale: Traffic scale per grid point.
        seed: Shared master seed (the workload is identical across points;
            only the swept knob differs).
        duration_s: Simulation window.
        policy_kind: Selection policy for every grid point.
        executor: Fan-out strategy; ``None`` reads ``REPRO_EXECUTOR``.

    Returns:
        The :class:`SweepResult`.

    Raises:
        KeyError: For unknown scenarios.
        ValueError: For unknown spec fields or an empty grid.
    """
    from repro.spec.grid import GridAxis, GridSpec
    from repro.spec.runner import run_grid

    if scenario_name not in PAPER_SCENARIOS:
        raise KeyError(f"unknown scenario {scenario_name!r}")
    if not values:
        raise ValueError("empty sweep grid")
    check_parameter(parameter)

    grid = GridSpec(
        base=scenario_name, axes=(GridAxis(parameter, tuple(values)),)
    )
    run = run_grid(
        grid, scale=scale, seed=seed, duration_s=duration_s,
        base_policy=policy_kind, executor=executor,
    )
    result = SweepResult(scenario_name=scenario_name, parameter=parameter)
    for value, row in zip(values, run.rows):
        result.values.append(float(value))
        result.metrics.append(row)
    return result
