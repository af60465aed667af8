"""Spec of :mod:`repro.core.folds`: the traffic and hourly folds, one flow at a time."""

from __future__ import annotations

from repro.core.flows import CONTROL_FLOW_THRESHOLD_BYTES
from repro.core.folds import HourlyShareAccumulator, TrafficAccumulator
from repro.trace.columnar import FlowTable


def observe_traffic(acc: TrafficAccumulator, window: FlowTable) -> None:
    """Spec of :meth:`TrafficAccumulator.observe`."""
    for record in window.records:
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
    for record in window.records:
        if record.num_bytes < CONTROL_FLOW_THRESHOLD_BYTES:
            continue
        hours = acc._counts.setdefault(record.dst_ip, {})
        hours[record.hour] = hours.get(record.hour, 0) + 1
