"""Video-session construction (Section VI-A).

"A video session aggregates all flows that i) have the same source IP
address and VideoID, and ii) are overlapped in time.  In particular, we
consider two flows to overlap in time if the end of the first flow and the
beginning of the second flow are separated by less than T seconds."

The paper's sensitivity analysis (Figure 5) sweeps T over
{1, 5, 10, 60, 300} seconds and settles on T = 1 s; Figure 6 then reports
the flows-per-session distribution at T = 1 s for every dataset.

:func:`build_sessions` and :func:`gap_sensitivity` run on the columnar
session index of :mod:`repro.trace.columnar`: one stable lexsort on
(client, video, t_start, t_end) plus a group-wise running-max horizon.
The Figure 5 sweep shares that single sorted pass — only the gap
comparison is re-evaluated per T.  :class:`WindowedSessionBuilder` runs
the same index over sealed windows, one at a time, and counts the
sessions as they close.  The record-at-a-time spec of the rule
lives in ``tests/oracle/sessions.py``, and the parity tests hold these
kernels to its exact session lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Union

import numpy as np

from repro.trace.columnar import FlowTable, as_table, concat_tables
from repro.trace.records import FlowRecord

#: The paper's chosen session gap.
DEFAULT_GAP_S = 1.0

#: The gap values swept in Figure 5.
PAPER_GAP_SWEEP_S = (1.0, 5.0, 10.0, 60.0, 300.0)

#: Figure 5/6 bucket labels: 1..9 flows, then ">9".
HISTOGRAM_BUCKETS = tuple(str(i) for i in range(1, 10)) + (">9",)


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


def build_sessions(
    records: Union[Iterable[FlowRecord], FlowTable], gap_s: float = DEFAULT_GAP_S
) -> List[Session]:
    """Group flows into video sessions.

    Args:
        records: Flow records (any order), or a
            :class:`~repro.trace.columnar.FlowTable` over them.
        gap_s: The session gap T.

    Returns:
        Sessions ordered by (client, video, start time).

    Raises:
        ValueError: For a non-positive gap.
    """
    if gap_s <= 0:
        raise ValueError("gap_s must be positive")
    table = as_table(records)
    index = table.session_index()
    n = len(index.order)
    if n == 0:
        return []
    recs = table.records
    ordered = [recs[i] for i in index.order.tolist()]
    # Pull each session's key from the columns instead of the first record:
    # 75k attribute lookups cost more than three vectorised gathers.
    cols = table.columns()
    first_rows = index.session_starts(gap_s).nonzero()[0]
    client_ips = cols.src_ip[index.order[first_rows]].tolist()
    video_codes = cols.video_code[index.order[first_rows]].tolist()
    video_ids = cols.video_ids.tolist()  # built-in str, not numpy str_
    bounds = first_rows.tolist()
    bounds.append(n)
    flow_lists = [ordered[start:end] for start, end in zip(bounds, bounds[1:])]
    return list(
        map(Session, client_ips, map(video_ids.__getitem__, video_codes), flow_lists)
    )


class SessionStatsAccumulator:
    """The Figure 5/6 flows-per-session histogram, folded batch by batch.

    The one bucketing of session sizes, for batch and streamed sessions.

    Args:
        sizes: Flow counts of a first batch of sessions.

    Attributes:
        sessions: Sessions counted so far.
    """

    def __init__(self, sizes=()):
        # Index n counts n-flow sessions for n = 1..9; index 10 is ">9".
        self._counts = np.zeros(len(HISTOGRAM_BUCKETS) + 1, dtype=np.int64)
        self.sessions = 0
        self.add_sizes(sizes)

    def add_sizes(self, sizes) -> None:
        """Count sessions of the given flow counts (a sequence or an array)."""
        sizes = np.minimum(np.asarray(sizes, dtype=np.int64), len(HISTOGRAM_BUCKETS))
        self._counts += np.bincount(sizes, minlength=len(self._counts))
        self.sessions += len(sizes)

    def histogram(self) -> Dict[str, float]:
        """Bucket label (``"1"``..``"9"``, ``">9"``) → fraction of sessions.

        Raises:
            ValueError: With no sessions.
        """
        if self.sessions == 0:
            raise ValueError("no sessions")
        return {
            label: count / self.sessions
            for label, count in zip(HISTOGRAM_BUCKETS, self._counts[1:].tolist())
        }


class WindowedSessionBuilder:
    """Gap-T sessions over sealed windows, their sizes folded into :attr:`stats`.

    Fed the windows of one producer in order (each sorted by ``t_start``,
    each starting after the last), it counts exactly the sessions of
    :func:`build_sessions` over their concatenation.  Each window is
    split by the one :class:`~repro.trace.columnar.SessionIndex`
    together with the flows of the sessions still open, which started in
    earlier windows.  Only the last session of a (client, video) group
    can stay open, and after a break the new flow's ``t_end`` exceeds
    every earlier ``t_end`` of the group, so its own flows carry the
    group's horizon.  A window's last ``t_start`` is a lower bound on
    every later flow's start, so a session whose horizon is a gap or more
    below it can gain no flow and is counted.  Memory follows the open
    sessions, not the flow count.

    Args:
        gap_s: The session gap T.

    Attributes:
        stats: The sessions closed so far.
    """

    def __init__(self, gap_s: float):
        if gap_s <= 0:
            raise ValueError("gap_s must be positive")
        self._gap_s = gap_s
        self._open = FlowTable([])
        self.stats = SessionStatsAccumulator()

    def observe(self, window: FlowTable) -> None:
        """Split one nonempty window; count the sessions no later flow can join."""
        table = concat_tables(self._open, window)
        index = table.session_index()
        session = np.cumsum(index.session_starts(self._gap_s)) - 1
        # Each group's last row, and the group's horizon there.
        last = np.append(index.new_group[1:], True)
        horizon = np.maximum(index.horizon_prev[last], index.t_end[last])
        # The kernel's own comparison: a later start minus the horizon
        # is no smaller than this one, so it breaks too.
        joinable = window.columns().t_start.max() - horizon < self._gap_s
        still_open = np.zeros(session[-1] + 1, dtype=bool)
        still_open[session[last][joinable]] = True
        self.stats.add_sizes(np.bincount(session)[~still_open])
        self._open = table.select(index.order[still_open[session]])

    def finish(self) -> None:
        """Count the sessions still open: no window follows."""
        self.stats.add_sizes(self._open.session_index().session_sizes(self._gap_s))
        self._open = FlowTable([])


def flows_per_session_histogram(sessions: Sequence[Session]) -> Dict[str, float]:
    """The Figure 5/6 histogram: fraction of sessions per flow-count bucket.

    Returns:
        Mapping bucket label (``"1"``..``"9"``, ``">9"``) → fraction.

    Raises:
        ValueError: With no sessions.
    """
    return SessionStatsAccumulator([s.num_flows for s in sessions]).histogram()


def multi_flow_fraction(sessions: Sequence[Session]) -> float:
    """Fraction of sessions with at least two flows.

    The paper reports 19.5-27.5 % at T = 1 s ("the use of application-layer
    redirection is not insignificant").

    Raises:
        ValueError: With no sessions.
    """
    if not sessions:
        raise ValueError("no sessions")
    return sum(1 for s in sessions if s.num_flows >= 2) / len(sessions)


def gap_sensitivity(
    records: Union[Sequence[FlowRecord], FlowTable],
    gaps_s: Sequence[float] = PAPER_GAP_SWEEP_S,
) -> Dict[float, Dict[str, float]]:
    """Figure 5: the flows-per-session histogram for each gap value.

    The grouping and sorting work is shared across the sweep — only the
    gap-break comparison is re-evaluated per T.

    Raises:
        ValueError: For a non-positive gap, or with no sessions.
    """
    for gap in gaps_s:
        if gap <= 0:
            raise ValueError("gap_s must be positive")
    index = as_table(records).session_index()
    return {
        gap: SessionStatsAccumulator(index.session_sizes(gap)).histogram()
        for gap in gaps_s
    }
