"""Spec of :mod:`repro.core.loadbalance`: Figure 11 from the flow split."""

from __future__ import annotations

from typing import Sequence

from repro.core.loadbalance import LoadBalanceReport
from repro.core.preferred import PreferredDcReport
from repro.geoloc.clustering import ServerMap
from repro.reporting.series import Series, hourly_counts
from repro.trace.records import FlowRecord

from tests.oracle.nonpreferred import video_flow_preference


def analyze_load_balance(
    records: Sequence[FlowRecord],
    report: PreferredDcReport,
    server_map: ServerMap,
    num_hours: int,
) -> LoadBalanceReport:
    """Spec of :func:`repro.core.loadbalance.analyze_load_balance`."""
    split = video_flow_preference(records, report, server_map)
    local_hours = hourly_counts((f.hour for f in split[True]), num_hours)
    other_hours = hourly_counts((f.hour for f in split[False]), num_hours)

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
