"""Spec of :mod:`repro.core.nonpreferred`: Figures 9 and 10, one flow at a time."""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.core.flows import CONTROL_FLOW_THRESHOLD_BYTES
from repro.core.nonpreferred import (
    VERDICT_DNS,
    VERDICT_PREFERRED,
    VERDICT_REDIRECTION,
    MultiFlowBreakdown,
    OneFlowBreakdown,
    SessionPattern,
)
from repro.core.preferred import PreferredDcReport
from repro.geoloc.clustering import ServerMap
from repro.reporting.series import Cdf, hourly_counts
from repro.trace.records import FlowRecord

from tests.oracle.sessions import Session


def is_video_flow(record: FlowRecord, threshold: int = CONTROL_FLOW_THRESHOLD_BYTES) -> bool:
    """Whether a flow carries video (by the size heuristic)."""
    return record.num_bytes >= threshold


def _preferred_test(
    report: PreferredDcReport, server_map: ServerMap
) -> Callable[[int], Optional[bool]]:
    preferred_id = report.preferred_id

    def test(server_ip: int) -> Optional[bool]:
        cluster = server_map.by_ip.get(server_ip)
        if cluster is None:
            return None
        return cluster.cluster_id == preferred_id

    return test


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
    """Video flows split by whether they hit the preferred data center.

    ``{True: flows to preferred, False: flows to non-preferred}``; flows
    to unclustered servers are dropped.  The runtime reads the same split
    off :func:`repro.core.nonpreferred.preference_masks`.
    """
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


def one_flow_breakdown(
    sessions: Sequence[Session],
    report: PreferredDcReport,
    server_map: ServerMap,
) -> OneFlowBreakdown:
    """Spec of :func:`repro.core.nonpreferred.one_flow_breakdown`."""
    test = _preferred_test(report, server_map)
    preferred = 0
    nonpreferred = 0
    for session in sessions:
        if session.num_flows != 1:
            continue
        verdict = test(session.first_flow.dst_ip)
        if verdict is None:
            continue
        if verdict:
            preferred += 1
        else:
            nonpreferred += 1
    return OneFlowBreakdown(
        dataset_name=report.dataset_name,
        total_sessions=len(sessions),
        preferred=preferred,
        nonpreferred=nonpreferred,
    )


def two_flow_breakdown(
    sessions: Sequence[Session],
    report: PreferredDcReport,
    server_map: ServerMap,
) -> Dict[SessionPattern, float]:
    """Spec of :func:`repro.core.nonpreferred.two_flow_breakdown`."""
    test = _preferred_test(report, server_map)
    counts: Dict[SessionPattern, int] = {p: 0 for p in SessionPattern}
    total = 0
    for session in sessions:
        if session.num_flows != 2:
            continue
        first = test(session.flows[0].dst_ip)
        second = test(session.flows[1].dst_ip)
        if first is None or second is None:
            continue
        if first and second:
            pattern = SessionPattern.PREFERRED_PREFERRED
        elif first and not second:
            pattern = SessionPattern.PREFERRED_NONPREFERRED
        elif not first and second:
            pattern = SessionPattern.NONPREFERRED_PREFERRED
        else:
            pattern = SessionPattern.NONPREFERRED_NONPREFERRED
        counts[pattern] += 1
        total += 1
    if total == 0:
        raise ValueError("no classifiable two-flow sessions")
    return {pattern: counts[pattern] / total for pattern in SessionPattern}


def multi_flow_breakdown(
    sessions: Sequence[Session],
    report: PreferredDcReport,
    server_map: ServerMap,
    min_flows: int = 3,
) -> MultiFlowBreakdown:
    """Spec of :func:`repro.core.nonpreferred.multi_flow_breakdown`."""
    if min_flows < 2:
        raise ValueError("min_flows must be >= 2")
    test = _preferred_test(report, server_map)
    counted = all_pref = first_pref_mixed = first_nonpref = 0
    for session in sessions:
        if session.num_flows < min_flows:
            continue
        verdicts = [test(f.dst_ip) for f in session.flows]
        if any(v is None for v in verdicts):
            continue
        counted += 1
        if verdicts[0] is False:
            first_nonpref += 1
        elif all(verdicts):
            all_pref += 1
        else:
            first_pref_mixed += 1
    return MultiFlowBreakdown(
        dataset_name=report.dataset_name,
        total_sessions=len(sessions),
        sessions=counted,
        all_preferred=all_pref,
        first_preferred_rest_mixed=first_pref_mixed,
        first_nonpreferred=first_nonpref,
    )


def session_verdicts(
    sessions: Sequence[Session],
    report: PreferredDcReport,
    server_map: ServerMap,
) -> List[Optional[str]]:
    """Spec of :func:`repro.core.nonpreferred.session_verdicts`."""
    test = _preferred_test(report, server_map)
    verdicts: List[Optional[str]] = []
    for session in sessions:
        first = test(session.first_flow.dst_ip)
        if first is None:
            verdicts.append(None)
            continue
        if first is False:
            verdicts.append(VERDICT_DNS)
            continue
        later = [test(flow.dst_ip) for flow in session.flows[1:]]
        if any(v is False for v in later):
            verdicts.append(VERDICT_REDIRECTION)
        elif any(v is None for v in later):
            verdicts.append(None)
        else:
            verdicts.append(VERDICT_PREFERRED)
    return verdicts


def dns_vs_redirection_shares(
    sessions: Sequence[Session],
    report: PreferredDcReport,
    server_map: ServerMap,
) -> Dict[str, float]:
    """Spec of :func:`repro.core.nonpreferred.dns_vs_redirection_shares`."""
    test = _preferred_test(report, server_map)
    dns = 0
    redirection = 0
    for session in sessions:
        first = test(session.first_flow.dst_ip)
        if first is None:
            continue
        for flow in session.flows:
            if not is_video_flow(flow):
                continue
            verdict = test(flow.dst_ip)
            if verdict is not False:
                continue
            if first is False:
                dns += 1
            else:
                redirection += 1
    total = dns + redirection
    if total == 0:
        return {"dns": 0.0, "redirection": 0.0}
    return {"dns": dns / total, "redirection": redirection / total}
