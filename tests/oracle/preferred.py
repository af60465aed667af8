"""Spec of :mod:`repro.core.preferred`: data-center views, one flow at a time."""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from repro.core.preferred import DataCenterView, PreferredDcReport, _pick_preferred
from repro.geo.coords import GeoPoint, haversine_km
from repro.geoloc.clustering import ServerMap
from repro.trace.records import Dataset

from tests.oracle import records_of


def analyze_preferred(
    dataset: Dataset,
    server_map: ServerMap,
    rtts_ms: Mapping[int, float],
    focus_ips: Optional[Sequence[int]] = None,
    vantage_point: Optional[GeoPoint] = None,
) -> PreferredDcReport:
    """Spec of :func:`repro.core.preferred.analyze_preferred`."""
    if vantage_point is None:
        vantage_point = dataset.vantage.city.point
    keep = set(focus_ips) if focus_ips is not None else None

    views: Dict[str, DataCenterView] = {}
    total_bytes = 0
    for record in records_of(dataset.table):
        if keep is not None and record.dst_ip not in keep:
            continue
        cluster = server_map.by_ip.get(record.dst_ip)
        if cluster is None:
            continue
        view = views.get(cluster.cluster_id)
        if view is None:
            view = DataCenterView(
                cluster=cluster,
                distance_km=haversine_km(vantage_point, cluster.estimate),
            )
            views[cluster.cluster_id] = view
        view.num_bytes += record.num_bytes
        view.num_flows += 1
        total_bytes += record.num_bytes
        rtt = rtts_ms.get(record.dst_ip)
        if rtt is not None and rtt < view.min_rtt_ms:
            view.min_rtt_ms = rtt
    if not views:
        raise ValueError(f"no clustered traffic in {dataset.name}")

    ordered = sorted(views.values(), key=lambda v: -v.num_bytes)
    preferred_id = _pick_preferred(ordered, total_bytes)
    return PreferredDcReport(
        dataset_name=dataset.name,
        views=ordered,
        preferred_id=preferred_id,
        total_bytes=total_bytes,
    )
