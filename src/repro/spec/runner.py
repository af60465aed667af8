"""Grid execution: enumerated points → warm rows + fanned-out cold runs.

This is the one scenario front end: ``repro grid run``, a what-if
comparison (``repro whatif``, a one-axis grid over variant names) and a
dose-response sweep (``repro sweep``, a one-axis grid over one spec
field) all run :func:`run_grid`.

Each grid point materialises to a ``(scenario, scale, seed, duration_s,
policy)`` task — the world's inputs and nothing else — and resolves
through the cached fan-out of
:func:`repro.whatif.metrics.scenario_metrics`: rows already in the
artifact store are read back without simulating, and only the cold
points fan out (:func:`~repro.exec.executor.fan_out`).
Points that build the same world share one row whatever their labels,
and re-running an extended grid simulates exactly the added points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from repro import obs
from repro.artifacts.store import default_store
from repro.reporting.tables import TextTable, format_fraction
from repro.spec.grid import GridPoint, GridSpec, enumerate_points
from repro.spec.model import SpecError, apply_to_scenario
from repro.trace.records import WEEK_S
from repro.whatif.metrics import ScenarioMetrics, scenario_metrics


@dataclass
class GridRunResult:
    """Outcome of one grid run.

    Attributes:
        grid: The executed grid.
        points: The enumerated points, in enumeration order.
        rows: One metric row per point, parallel to ``points``.
        warm: Points whose rows were read from the artifact store.
        cold: Points that were simulated by this run.
    """

    grid: GridSpec
    points: Tuple[GridPoint, ...]
    rows: List[ScenarioMetrics] = field(default_factory=list)
    warm: int = 0
    cold: int = 0

    def row(self, label: str) -> ScenarioMetrics:
        """Row of the point with this label.

        Raises:
            KeyError: For unknown labels.
        """
        for point, row in zip(self.points, self.rows):
            if point.label == label:
                return row
        raise KeyError(f"no grid row labelled {label!r}")


def materialize_point(
    point: GridPoint,
    base_policy: str = "preferred",
):
    """Apply a point's delta to its base scenario.

    Returns:
        ``(scenario, policy)`` ready for
        :func:`~repro.whatif.metrics.scenario_metrics`.

    Raises:
        SpecError: If the point's delta cannot apply to its base, or sets
            a value out of the scenario's range.
        KeyError: For unknown base names.
    """
    from repro.sim.specs import named_scenario

    scenario, policy = apply_to_scenario(
        named_scenario(point.base), point.delta, base_policy=base_policy
    )
    try:
        scenario.check_ranges()
    except ValueError as error:
        raise SpecError(f"point {point.label}: {error}") from None
    return scenario, policy


def _point_tasks(
    points: Sequence[GridPoint],
    scale: float,
    seed: int,
    duration_s: float,
    base_policy: str,
) -> List[Tuple]:
    tasks = []
    for point in points:
        scenario, policy = materialize_point(point, base_policy=base_policy)
        tasks.append((scenario, scale, seed, duration_s, policy))
    return tasks


def plan_grid(
    grid: GridSpec,
    scale: float = 0.01,
    seed: int = 7,
    duration_s: float = WEEK_S,
    base_policy: str = "preferred",
) -> List[Dict[str, Any]]:
    """Per-point run plan: what would simulate, what is already warm.

    Returns:
        One dict per point — ``label``, ``base``, ``policy``, and
        ``warm`` (whether the artifact store already holds its row) — in
        enumeration order.  Nothing simulates.

    Raises:
        SpecError: For invalid grids or inapplicable deltas.
        KeyError: For unknown base/dataset names.
    """
    points = enumerate_points(grid)
    tasks = _point_tasks(points, scale, seed, duration_s, base_policy)
    store = default_store()
    flags = [
        store is not None and store.has(scenario_metrics.cache_key(*task))
        for task in tasks
    ]
    return [
        {
            "label": point.label,
            "base": point.base,
            "policy": task[4],
            "warm": warm,
        }
        for point, task, warm in zip(points, tasks, flags)
    ]


def run_grid(
    grid: GridSpec,
    scale: float = 0.01,
    seed: int = 7,
    duration_s: float = WEEK_S,
    base_policy: str = "preferred",
) -> GridRunResult:
    """Simulate every grid point and collect its metric row.

    Points are independent worlds sharing one master seed, so the cold
    ones fan out with byte-identical rows in a pool or in-process; warm
    rows load from the artifact store without simulating.

    Args:
        grid: The grid to run.
        scale: Traffic scale per point.
        seed: Shared master seed.
        duration_s: Simulation window per point.
        base_policy: Policy for points whose delta does not set the
            ``"policy"`` par.

    Returns:
        The :class:`GridRunResult`, rows in enumeration order.

    Raises:
        SpecError: For invalid grids or inapplicable deltas.
        KeyError: For unknown base/dataset names.
    """
    points = enumerate_points(grid)
    tasks = _point_tasks(points, scale, seed, duration_s, base_policy)
    with obs.span("grid/run", base=grid.base, points=len(points)) as active:
        rows, hits = scenario_metrics.map(
            tasks,
            labels=[f"{point.base}/{point.label}" for point in points],
        )
        warm = sum(hits)
        if active is not None:
            active.attrs.update(warm=warm, cold=len(points) - warm)
    return GridRunResult(
        grid=grid,
        points=points,
        rows=rows,
        warm=warm,
        cold=len(points) - warm,
    )


def render_comparison(result: GridRunResult) -> str:
    """A text table of a what-if comparison: a one-axis variant grid.

    Each row is named by its point's ``variant`` value.
    """
    table = TextTable(
        [
            "variant", "requests", "pref%", "topDC%", "#DCs",
            "redir/req", "miss/req", "ovl/req",
            "startup p50 [s]", "startup p90 [s]", "RTT p50 [ms]",
        ],
        title=f"WHAT-IF COMPARISON — {result.grid.base}",
    )
    for point, row in zip(result.points, result.rows):
        table.add_row(
            dict(point.assignments)["variant"],
            row.requests,
            format_fraction(row.preferred_share),
            format_fraction(row.top_dc_share),
            row.distinct_dcs,
            f"{row.redirect_rate:.3f}",
            f"{row.miss_rate:.3f}",
            f"{row.overload_rate:.3f}",
            f"{row.median_startup_s:.2f}",
            f"{row.p90_startup_s:.2f}",
            f"{row.median_serving_rtt_ms:.1f}",
        )
    return table.render()
