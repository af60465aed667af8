"""Spec of :mod:`repro.core.hotspots`: Figures 13-16, one flow at a time."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.hotspots import HotServerReport, HotVideoSeries, ServerLoadReport
from repro.core.preferred import PreferredDcReport
from repro.geoloc.clustering import ServerMap
from repro.reporting.series import Series, hourly_counts
from repro.trace.records import FlowRecord

from tests.oracle.nonpreferred import video_flow_preference
from tests.oracle.sessions import Session


def nonpreferred_requests_per_video(
    records: Sequence[FlowRecord],
    report: PreferredDcReport,
    server_map: ServerMap,
) -> Dict[str, int]:
    """Spec of :func:`repro.core.hotspots.nonpreferred_requests_per_video`."""
    split = video_flow_preference(records, report, server_map)
    counts: Dict[str, int] = {}
    for flow in split[False]:
        counts[flow.video_id] = counts.get(flow.video_id, 0) + 1
    return counts


def top_nonpreferred_videos(
    records: Sequence[FlowRecord],
    report: PreferredDcReport,
    server_map: ServerMap,
    num_hours: int,
    top_k: int = 4,
) -> List[HotVideoSeries]:
    """Spec of :func:`repro.core.hotspots.top_nonpreferred_videos`."""
    counts = nonpreferred_requests_per_video(records, report, server_map)
    if not counts:
        raise ValueError("no non-preferred video downloads")
    top = sorted(counts, key=lambda v: -counts[v])[:top_k]

    split = video_flow_preference(records, report, server_map)
    top_set = set(top)
    total_by_video = {v: [0] * num_hours for v in top}
    nonpref_by_video = {v: [0] * num_hours for v in top}
    for preferred, flows in ((True, split[True]), (False, split[False])):
        for f in flows:
            if f.video_id not in top_set:
                continue
            hour = f.hour
            if 0 <= hour < num_hours:
                total_by_video[f.video_id][hour] += 1
                if not preferred:
                    nonpref_by_video[f.video_id][hour] += 1

    series: List[HotVideoSeries] = []
    for video_id in top:
        total_hours = total_by_video[video_id]
        nonpref_hours = nonpref_by_video[video_id]
        all_series = Series(label=f"{video_id} all")
        nonpref_series = Series(label=f"{video_id} non-preferred")
        for hour in range(num_hours):
            all_series.append(float(hour), float(total_hours[hour]))
            nonpref_series.append(float(hour), float(nonpref_hours[hour]))
        series.append(
            HotVideoSeries(
                video_id=video_id,
                all_requests=all_series,
                nonpreferred_requests=nonpref_series,
            )
        )
    return series


def preferred_server_load(
    records: Sequence[FlowRecord],
    report: PreferredDcReport,
    server_map: ServerMap,
    num_hours: int,
) -> ServerLoadReport:
    """Spec of :func:`repro.core.hotspots.preferred_server_load`."""
    avg_series = Series(label=f"{report.dataset_name} avg")
    max_series = Series(label=f"{report.dataset_name} max")

    preferred_ips = {
        ip
        for ip in server_map.by_ip
        if server_map.by_ip[ip].cluster_id == report.preferred_id
    }
    per_hour_server: Dict[int, Dict[int, int]] = {}
    for record in records:
        if record.dst_ip not in preferred_ips:
            continue
        bucket = per_hour_server.setdefault(record.hour, {})
        bucket[record.dst_ip] = bucket.get(record.dst_ip, 0) + 1

    for hour in range(num_hours):
        bucket = per_hour_server.get(hour, {})
        if bucket:
            loads = list(bucket.values())
            avg_series.append(float(hour), sum(loads) / len(loads))
            max_series.append(float(hour), float(max(loads)))
        else:
            avg_series.append(float(hour), 0.0)
            max_series.append(float(hour), 0.0)
    return ServerLoadReport(avg_per_hour=avg_series, max_per_hour=max_series)


def hot_server_sessions(
    sessions: Sequence[Session],
    video_id: str,
    report: PreferredDcReport,
    server_map: ServerMap,
    num_hours: int,
) -> HotServerReport:
    """Spec of :func:`repro.core.hotspots.hot_server_sessions`."""
    first_contact_counts: Dict[int, int] = {}
    for session in sessions:
        if session.video_id != video_id:
            continue
        ip = session.first_flow.dst_ip
        cluster = server_map.by_ip.get(ip)
        if cluster is not None and cluster.cluster_id == report.preferred_id:
            first_contact_counts[ip] = first_contact_counts.get(ip, 0) + 1
    if not first_contact_counts:
        raise ValueError(f"video {video_id} never lands on the preferred data center")
    server_ip = max(first_contact_counts, key=lambda ip: first_contact_counts[ip])

    def is_preferred(ip: int) -> Optional[bool]:
        cluster = server_map.by_ip.get(ip)
        if cluster is None:
            return None
        return cluster.cluster_id == report.preferred_id

    buckets: Dict[str, List[int]] = {"all_pref": [], "first_pref": [], "others": []}
    for session in sessions:
        if not any(f.dst_ip == server_ip for f in session.flows):
            continue
        verdicts = [is_preferred(f.dst_ip) for f in session.flows]
        if any(v is None for v in verdicts):
            buckets["others"].append(session.hour)
        elif all(verdicts):
            buckets["all_pref"].append(session.hour)
        elif verdicts[0] and not all(verdicts[1:]):
            buckets["first_pref"].append(session.hour)
        else:
            buckets["others"].append(session.hour)

    def to_series(label: str, hours: List[int]) -> Series:
        counts = hourly_counts(hours, num_hours)
        series = Series(label=label)
        for hour in range(num_hours):
            series.append(float(hour), float(counts[hour]))
        return series

    return HotServerReport(
        server_ip=server_ip,
        all_preferred=to_series("all preferred flows", buckets["all_pref"]),
        first_preferred_rest_not=to_series(
            "only the first flow is preferred", buckets["first_pref"]
        ),
        others=to_series("others", buckets["others"]),
    )
