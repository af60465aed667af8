"""DNS-level load balancing over time (Section VII-A, Figure 11).

For EU2, the fraction of video flows served by the (in-ISP) preferred data
center tracks the diurnal load inversely: ~100 % at night, ~30 % at the
daily peak — "strong evidence that adaptive DNS-level load balancing
mechanisms are in place".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Union

import math

from repro.core.nonpreferred import preference_masks
from repro.core.preferred import PreferredDcReport
from repro.geoloc.clustering import ServerMap
from repro.reporting.series import Series, hourly_counts
from repro.trace.columnar import FlowTable, as_table
from repro.trace.records import FlowRecord


@dataclass
class LoadBalanceReport:
    """Figure 11's two panels for one dataset.

    Attributes:
        dataset_name: Dataset described.
        local_fraction: Hour → fraction of video flows to the preferred
            data center (top panel); hours with no flows carry ``nan``.
        flows_per_hour: Hour → total video flows (bottom panel).
    """

    dataset_name: str
    local_fraction: Series
    flows_per_hour: Series

    def correlation(self) -> float:
        """Pearson correlation between load and the local fraction.

        The EU2 signature is a strongly *negative* value: the busier the
        hour, the smaller the share the internal data center can absorb.

        Raises:
            ValueError: With fewer than 3 usable hours.
        """
        pairs = [
            (load, frac)
            for load, frac in zip(self.flows_per_hour.ys, self.local_fraction.ys)
            if not math.isnan(frac)
        ]
        if len(pairs) < 3:
            raise ValueError("not enough hours to correlate")
        n = len(pairs)
        mean_x = sum(p[0] for p in pairs) / n
        mean_y = sum(p[1] for p in pairs) / n
        cov = sum((x - mean_x) * (y - mean_y) for x, y in pairs)
        var_x = sum((x - mean_x) ** 2 for x, _ in pairs)
        var_y = sum((y - mean_y) ** 2 for _, y in pairs)
        if var_x == 0 or var_y == 0:
            return 0.0
        return cov / math.sqrt(var_x * var_y)

    def night_day_split(self, threshold_fraction: float = 0.5) -> tuple:
        """Mean local fraction in quiet vs. busy hours.

        Hours are split at ``threshold_fraction`` of the peak hourly load.

        Returns:
            ``(quiet_mean, busy_mean)``.

        Raises:
            ValueError: If either side is empty.
        """
        peak = max(self.flows_per_hour.ys) if self.flows_per_hour.ys else 0
        quiet: List[float] = []
        busy: List[float] = []
        for load, frac in zip(self.flows_per_hour.ys, self.local_fraction.ys):
            if math.isnan(frac):
                continue
            (quiet if load < threshold_fraction * peak else busy).append(frac)
        if not quiet or not busy:
            raise ValueError("cannot split hours into quiet and busy")
        return (sum(quiet) / len(quiet), sum(busy) / len(busy))


def analyze_load_balance(
    records: Union[Sequence[FlowRecord], FlowTable],
    report: PreferredDcReport,
    server_map: ServerMap,
    num_hours: int,
) -> LoadBalanceReport:
    """Build Figure 11's series for one dataset."""
    table = as_table(records)
    is_video, verdict = preference_masks(table, report, server_map)
    hour = table.columns().hour
    local_hours = hourly_counts(hour[is_video & (verdict == 1)], num_hours)
    other_hours = hourly_counts(hour[is_video & (verdict == 0)], num_hours)

    local_fraction = Series(label=f"{report.dataset_name} local fraction")
    flows_per_hour = Series(label=f"{report.dataset_name} video flows/h")
    for hour in range(num_hours):
        total = local_hours[hour] + other_hours[hour]
        flows_per_hour.append(float(hour), float(total))
        local_fraction.append(
            float(hour), local_hours[hour] / total if total else float("nan")
        )
    return LoadBalanceReport(
        dataset_name=report.dataset_name,
        local_fraction=local_fraction,
        flows_per_hour=flows_per_hour,
    )
