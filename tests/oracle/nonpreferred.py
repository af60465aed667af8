"""Spec of :mod:`repro.core.nonpreferred`: Figure 9's flow attribution."""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.core.flows import is_video_flow
from repro.core.nonpreferred import _preferred_test
from repro.core.preferred import PreferredDcReport
from repro.geoloc.clustering import ServerMap
from repro.reporting.series import Cdf, hourly_counts
from repro.trace.records import FlowRecord


def hourly_fraction(
    numerator_hours: Iterable[int],
    denominator_hours: Iterable[int],
    num_hours: int,
    min_denominator: int = 1,
) -> Dict[int, float]:
    """Per-hour ratio of two hourly counts, skipping thin hours."""
    num = hourly_counts(numerator_hours, num_hours)
    den = hourly_counts(denominator_hours, num_hours)
    return {h: num[h] / den[h] for h in range(num_hours) if den[h] >= min_denominator}


def video_flow_preference(
    records: Iterable[FlowRecord],
    report: PreferredDcReport,
    server_map: ServerMap,
) -> Dict[bool, List[FlowRecord]]:
    """Spec of :func:`repro.core.nonpreferred.video_flow_preference`."""
    test = _preferred_test(report, server_map)
    split: Dict[bool, List[FlowRecord]] = {True: [], False: []}
    for record in records:
        if not is_video_flow(record):
            continue
        verdict = test(record.dst_ip)
        if verdict is None:
            continue
        split[verdict].append(record)
    return split


def hourly_nonpreferred_cdf(
    records: Sequence[FlowRecord],
    report: PreferredDcReport,
    server_map: ServerMap,
    num_hours: int,
    min_flows_per_hour: int = 5,
) -> Cdf:
    """Spec of :func:`repro.core.nonpreferred.hourly_nonpreferred_cdf`."""
    split = video_flow_preference(records, report, server_map)
    all_hours = [f.hour for f in split[True]] + [f.hour for f in split[False]]
    fractions = hourly_fraction(
        (f.hour for f in split[False]), all_hours, num_hours,
        min_denominator=min_flows_per_hour,
    )
    if not fractions:
        raise ValueError("no hour has enough video flows")
    return Cdf(fractions.values())


def nonpreferred_fraction(
    records: Sequence[FlowRecord],
    report: PreferredDcReport,
    server_map: ServerMap,
) -> float:
    """Spec of :func:`repro.core.nonpreferred.nonpreferred_fraction`."""
    split = video_flow_preference(records, report, server_map)
    nonpref = len(split[False])
    total = len(split[True]) + nonpref
    if total == 0:
        raise ValueError("no classifiable video flows")
    return nonpref / total
