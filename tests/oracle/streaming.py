"""Spec of :mod:`repro.stream.detectors`: per-window detector inputs."""

from __future__ import annotations

from typing import Dict, Tuple

from repro.stream.events import StreamWindow


def video_counts(window: StreamWindow) -> Dict[str, int]:
    """Spec of :func:`repro.stream.detectors._video_counts`."""
    if len(window) == 0:
        return {}
    counts: Dict[str, int] = {}
    for record in window.records:
        counts[record.video_id] = counts.get(record.video_id, 0) + 1
    return counts


def top_server_bytes(window: StreamWindow) -> Tuple[int, int, int]:
    """Spec of :func:`repro.stream.detectors._top_server_bytes`."""
    per_server: Dict[int, int] = {}
    total = 0
    for record in window.records:
        per_server[record.dst_ip] = per_server.get(record.dst_ip, 0) + record.num_bytes
        total += record.num_bytes
    return max(per_server.values()), total, len(per_server)
