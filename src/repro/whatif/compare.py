"""Run variant sets and compare their metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.exec.executor import ParallelExecutor
from repro.reporting.tables import TextTable, format_fraction
from repro.sim.scenarios import PAPER_SCENARIOS
from repro.trace.records import WEEK_S
from repro.whatif.metrics import ScenarioMetrics, scenario_metrics
from repro.whatif.variants import Variant, baseline_variant


@dataclass
class ComparisonReport:
    """Metric rows for a baseline scenario and its variants.

    Attributes:
        scenario_name: The perturbed scenario.
        rows: One metrics row per variant, baseline first.
    """

    scenario_name: str
    rows: List[ScenarioMetrics] = field(default_factory=list)

    @property
    def baseline(self) -> ScenarioMetrics:
        """The baseline row.

        Raises:
            LookupError: If no baseline row is present.
        """
        for row in self.rows:
            if row.label == "baseline":
                return row
        raise LookupError("no baseline row in the comparison")

    def row(self, label: str) -> ScenarioMetrics:
        """Row by variant name.

        Raises:
            KeyError: For unknown labels.
        """
        for candidate in self.rows:
            if candidate.label == label:
                return candidate
        raise KeyError(f"no row labelled {label!r}")

    def delta(self, label: str, metric: str) -> float:
        """Variant-minus-baseline difference of a metric attribute."""
        return getattr(self.row(label), metric) - getattr(self.baseline, metric)


def compare_variants(
    scenario_name: str,
    variants: Sequence[Variant],
    scale: float = 0.01,
    seed: int = 7,
    duration_s: float = WEEK_S,
    executor: Optional[ParallelExecutor] = None,
) -> ComparisonReport:
    """Simulate a scenario under each variant and collect metric rows.

    Variants share a master seed but build independent worlds, so they
    fan out over the executor with byte-identical rows on every backend.
    Rows are disk-memoized (``"whatif/metrics"``): re-comparing with an
    extra variant simulates only the new variant, and a variant equal to
    a previously swept grid point reuses that point's row outright.

    Args:
        scenario_name: One of the five paper scenarios.
        variants: Variants to run (a baseline row is prepended if missing).
        scale: Traffic scale for the comparison runs.
        seed: Master seed (shared by all variants, so the workloads differ
            only where the variant says they should).
        duration_s: Simulation window.
        executor: Fan-out strategy; ``None`` reads ``REPRO_EXECUTOR``.

    Returns:
        The :class:`ComparisonReport`.

    Raises:
        KeyError: For unknown scenario names.
    """
    spec = PAPER_SCENARIOS.get(scenario_name)
    if spec is None:
        raise KeyError(f"unknown scenario {scenario_name!r}")
    ordered = list(variants)
    if not any(v.name == "baseline" for v in ordered):
        ordered.insert(0, baseline_variant())

    tasks = [
        (variant.apply(spec), scale, seed, duration_s, variant.policy_kind, variant.name)
        for variant in ordered
    ]
    rows, _ = scenario_metrics.map(
        tasks, executor,
        labels=[f"{scenario_name}/{variant.name}" for variant in ordered],
    )
    report = ComparisonReport(scenario_name=scenario_name)
    report.rows.extend(rows)
    return report


def render_comparison(report: ComparisonReport) -> str:
    """A text table of the comparison."""
    table = TextTable(
        [
            "variant", "requests", "pref%", "topDC%", "#DCs",
            "redir/req", "miss/req", "ovl/req",
            "startup p50 [s]", "startup p90 [s]", "RTT p50 [ms]",
        ],
        title=f"WHAT-IF COMPARISON — {report.scenario_name}",
    )
    for row in report.rows:
        table.add_row(
            row.label,
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
