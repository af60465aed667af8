"""Spec of :mod:`repro.core.peering`: per-AS ingress, one flow at a time."""

from __future__ import annotations

from typing import Dict, List

from repro.core.peering import AsTraffic, PeeringReport
from repro.net.asn import AsRegistry
from repro.trace.records import Dataset

from tests.oracle import records_of


def analyze_peering(dataset: Dataset, registry: AsRegistry) -> PeeringReport:
    """Spec of :func:`repro.core.peering.analyze_peering`."""
    num_hours = max(1, dataset.num_hours)
    buckets: Dict[int, List[int]] = {}
    names: Dict[int, str] = {}
    for record in records_of(dataset.table):
        system = registry.whois(record.dst_ip)
        asn = system.asn if system is not None else 0
        if asn not in buckets:
            buckets[asn] = [0] * num_hours
            names[asn] = system.name if system is not None else "unattributed"
        hour = min(record.hour, num_hours - 1)
        buckets[asn][hour] += record.num_bytes

    rows = [
        AsTraffic(asn=asn, name=names[asn], hourly_bytes=hours)
        for asn, hours in buckets.items()
    ]
    rows.sort(key=lambda r: -r.total_bytes)
    on_net = 0
    host_asn = dataset.vantage.asn
    for row in rows:
        if row.asn == host_asn:
            on_net = row.total_bytes
    return PeeringReport(
        dataset_name=dataset.name,
        per_as=rows,
        num_hours=num_hours,
        on_net_bytes=on_net,
    )
