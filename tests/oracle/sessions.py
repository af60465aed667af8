"""Spec of :mod:`repro.core.sessions`: session building, one group at a time."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.sessions import DEFAULT_GAP_S, HISTOGRAM_BUCKETS, PAPER_GAP_SWEEP_S
from repro.trace.records import FlowRecord

from tests.oracle import records_of


@dataclass
class Session:
    """A group of related flows: one user's attempt to watch one video.

    Attributes:
        client_ip: The client address.
        video_id: The requested VideoID.
        flows: Member flows ordered by start time.
    """

    client_ip: int
    video_id: str
    flows: List[FlowRecord] = field(default_factory=list)

    @property
    def num_flows(self) -> int:
        """Number of member flows."""
        return len(self.flows)

    @property
    def t_start(self) -> float:
        """Start of the first flow."""
        return self.flows[0].t_start

    @property
    def hour(self) -> int:
        """Trace hour the session started in."""
        return int(self.t_start // 3600.0)

    @property
    def first_flow(self) -> FlowRecord:
        """The session's first flow (DNS landing point)."""
        return self.flows[0]

    @property
    def last_flow(self) -> FlowRecord:
        """The session's last flow (normally the video transfer)."""
        return self.flows[-1]

    @property
    def total_bytes(self) -> int:
        """Bytes over all member flows."""
        return sum(f.num_bytes for f in self.flows)


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


def multi_flow_fraction(sessions: Sequence[Session]) -> float:
    """Spec of :func:`repro.core.sessions.multi_flow_fraction`."""
    if not sessions:
        raise ValueError("no sessions")
    return sum(1 for s in sessions if s.num_flows >= 2) / len(sessions)


def sessions_of(sessions) -> List[Session]:
    """The spec's session list of a runtime :class:`~repro.core.sessions.Sessions`."""
    records = records_of(sessions.table)
    video_ids = sessions.table.columns().video_ids.tolist()
    rows = sessions.rows.tolist()
    offsets = sessions.offsets.tolist()
    return [
        Session(client, video_ids[video], [records[r] for r in rows[lo:hi]])
        for client, video, lo, hi in zip(
            sessions.client_ip.tolist(), sessions.video_code.tolist(), offsets, offsets[1:]
        )
    ]
