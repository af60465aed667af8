"""Spec of :mod:`repro.core.sessions`: session building, one group at a time."""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.sessions import (
    DEFAULT_GAP_S,
    HISTOGRAM_BUCKETS,
    PAPER_GAP_SWEEP_S,
    Session,
)
from repro.trace.records import FlowRecord


def _sorted_groups(records: Iterable[FlowRecord]) -> List[List[FlowRecord]]:
    """Flows grouped by (client, video), groups and members in spec order."""
    by_key: Dict[Tuple[int, str], List[FlowRecord]] = {}
    for record in records:
        by_key.setdefault((record.src_ip, record.video_id), []).append(record)
    return [
        sorted(by_key[key], key=lambda f: (f.t_start, f.t_end)) for key in sorted(by_key)
    ]


def _group_session_sizes(flows: Sequence[FlowRecord], gap_s: float) -> List[int]:
    """Session sizes of one sorted (client, video) group."""
    sizes: List[int] = []
    size = 1
    # Track the latest end seen so an early long flow keeps covering
    # later short ones (flows genuinely overlap during redirects).
    horizon = flows[0].t_end
    for flow in flows[1:]:
        if flow.t_start - horizon < gap_s:
            size += 1
        else:
            sizes.append(size)
            size = 1
        horizon = max(horizon, flow.t_end)
    sizes.append(size)
    return sizes


def histogram(sizes: Sequence[int]) -> Dict[str, float]:
    """Spec of the Figure 5/6 bucketing (``SessionStatsAccumulator``)."""
    if not sizes:
        raise ValueError("no sessions")
    counts = {label: 0 for label in HISTOGRAM_BUCKETS}
    for n in sizes:
        counts[str(n) if n <= 9 else ">9"] += 1
    return {label: counts[label] / len(sizes) for label in HISTOGRAM_BUCKETS}


def build_sessions(
    records: Iterable[FlowRecord], gap_s: float = DEFAULT_GAP_S
) -> List[Session]:
    """Spec of :func:`repro.core.sessions.build_sessions`."""
    if gap_s <= 0:
        raise ValueError("gap_s must be positive")
    sessions: List[Session] = []
    for flows in _sorted_groups(records):
        first = flows[0]
        current = Session(client_ip=first.src_ip, video_id=first.video_id, flows=[first])
        horizon = first.t_end
        for flow in flows[1:]:
            if flow.t_start - horizon < gap_s:
                current.flows.append(flow)
            else:
                sessions.append(current)
                current = Session(
                    client_ip=flow.src_ip, video_id=flow.video_id, flows=[flow]
                )
            horizon = max(horizon, flow.t_end)
        sessions.append(current)
    return sessions


def gap_sensitivity(
    records: Sequence[FlowRecord],
    gaps_s: Sequence[float] = PAPER_GAP_SWEEP_S,
) -> Dict[float, Dict[str, float]]:
    """Spec of :func:`repro.core.sessions.gap_sensitivity`."""
    for gap in gaps_s:
        if gap <= 0:
            raise ValueError("gap_s must be positive")
    groups = _sorted_groups(records)
    out: Dict[float, Dict[str, float]] = {}
    for gap in gaps_s:
        sizes: List[int] = []
        for flows in groups:
            sizes.extend(_group_session_sizes(flows, gap))
        out[gap] = histogram(sizes)
    return out
