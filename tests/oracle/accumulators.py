"""Spec of :mod:`repro.core.folds`: the traffic, hourly and edge-cloud folds, one flow at a time."""

from __future__ import annotations

from repro.core.flows import CONTROL_FLOW_THRESHOLD_BYTES
from repro.core.folds import EdgeCloudAccumulator, HourlyShareAccumulator, TrafficAccumulator
from repro.trace.columnar import FlowTable

from tests.oracle import records_of


def observe_traffic(acc: TrafficAccumulator, window: FlowTable) -> None:
    """Spec of :meth:`TrafficAccumulator.observe`."""
    for record in records_of(window):
        acc.flows += 1
        acc.total_bytes += record.num_bytes
        acc._clients.add(record.src_ip)
        stats = acc._stats(record.dst_ip)
        stats.num_bytes += record.num_bytes
        stats.num_flows += 1
        if record.num_bytes >= CONTROL_FLOW_THRESHOLD_BYTES:
            stats.video_flows += 1


def observe_hourly(acc: HourlyShareAccumulator, window: FlowTable) -> None:
    """Spec of :meth:`HourlyShareAccumulator.observe`."""
    for record in records_of(window):
        if record.num_bytes < CONTROL_FLOW_THRESHOLD_BYTES:
            continue
        hours = acc._counts.setdefault(record.dst_ip, {})
        hours[record.hour] = hours.get(record.hour, 0) + 1


def observe_edge_cloud(acc: EdgeCloudAccumulator, table: FlowTable) -> None:
    """Spec of :meth:`EdgeCloudAccumulator.observe`."""
    for record in records_of(table):
        subnet = acc._subnet_of(record.src_ip)
        if subnet is None:
            continue
        prefix = record.dst_ip >> acc._shift
        cell = acc._cells.setdefault((subnet, prefix), [0, 0])
        cell[0] += record.num_bytes
        cell[1] += 1
        acc.bytes_total += record.num_bytes
        acc.flows_total += 1
        rep = acc._rep_ip.get(prefix)
        if rep is None or record.dst_ip < rep:
            acc._rep_ip[prefix] = record.dst_ip
