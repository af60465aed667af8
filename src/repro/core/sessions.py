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
comparison is re-evaluated per T.  :class:`Sessions` is that sort cut
at one gap: every Figure 10-16 consumer reads a per-flow column in
session order and reduces it per session, with no per-flow object.
:class:`WindowedSessionBuilder` runs the same index over sealed
windows, one at a time, and counts the sessions as they close.  The
record-at-a-time spec of the rule lives in ``tests/oracle/sessions.py``,
and the parity tests hold these kernels to its exact session lists.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.trace.columnar import RECORD_FIELDS, FlowTable, concat_tables

#: The paper's chosen session gap.
DEFAULT_GAP_S = 1.0

#: The gap values swept in Figure 5.
PAPER_GAP_SWEEP_S = (1.0, 5.0, 10.0, 60.0, 300.0)

#: Figure 5/6 bucket labels: 1..9 flows, then ">9".
HISTOGRAM_BUCKETS = tuple(str(i) for i in range(1, 10)) + (">9",)


class Sessions:
    """One table's video sessions at one gap, as columns in session order.

    Sessions are ordered by (client, video, start time) and each session's
    flows by (start, end), the order of the table's
    :class:`~repro.trace.columnar.SessionIndex`.  Session ``k``'s flows
    are the table rows ``rows[offsets[k]:offsets[k + 1]]``; a per-flow
    column of the table in session order is ``column[rows]``.

    Attributes:
        table: The flows the sessions group.
        rows: Table row of every flow, in session order.
        offsets: Per session, where its flows start in :attr:`rows`, plus
            one final entry, ``len(rows)``.
        sizes: Flows per session.
        first: Table row of each session's first flow (its DNS landing
            point).
        last: Table row of each session's last flow (normally the video
            transfer).
        client_ip: Per-session client address.
        video_code: Per-session video, as a code into the table's
            ``video_ids`` column.
        t_start: Per-session start: its first flow's ``t_start``.
    """

    __slots__ = (
        "table", "rows", "offsets", "sizes", "first", "last",
        "client_ip", "video_code", "t_start",
    )

    def __init__(self, table: FlowTable, gap_s: float):
        index = table.session_index()
        cols = table.columns()
        self.table = table
        self.rows = index.order
        starts = np.flatnonzero(index.session_starts(gap_s))
        self.offsets = np.append(starts, len(self.rows))
        self.sizes = np.diff(self.offsets)
        self.first = self.rows[starts]
        self.last = self.rows[self.offsets[1:] - 1]
        self.client_ip = cols.src_ip[self.first]
        self.video_code = cols.video_code[self.first]
        self.t_start = cols.t_start[self.first]

    def __len__(self) -> int:
        return len(self.sizes)

    def per_session_any(self, flags) -> "np.ndarray":
        """Per session: whether any of its flows is flagged.

        Args:
            flags: One boolean per flow, in session order (a table
                column indexed by :attr:`rows`).
        """
        if not len(self):
            return np.zeros(0, dtype=bool)
        return np.logical_or.reduceat(flags, self.offsets[:-1])


def build_sessions(table: FlowTable, gap_s: float = DEFAULT_GAP_S) -> Sessions:
    """Group a table's flows into video sessions.

    Args:
        table: The flows, in any order.
        gap_s: The session gap T.

    Returns:
        The sessions, ordered by (client, video, start time).

    Raises:
        ValueError: For a non-positive gap.
    """
    if gap_s <= 0:
        raise ValueError("gap_s must be positive")
    return Sessions(table, gap_s)


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
        self._open = FlowTable.from_rows([], RECORD_FIELDS)
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
        self._open = FlowTable.from_rows([], RECORD_FIELDS)


def flows_per_session_histogram(sessions: Sessions) -> Dict[str, float]:
    """The Figure 5/6 histogram: fraction of sessions per flow-count bucket.

    Returns:
        Mapping bucket label (``"1"``..``"9"``, ``">9"``) → fraction.

    Raises:
        ValueError: With no sessions.
    """
    return SessionStatsAccumulator(sessions.sizes).histogram()


def multi_flow_fraction(sessions: Sessions) -> float:
    """Fraction of sessions with at least two flows.

    The paper reports 19.5-27.5 % at T = 1 s ("the use of application-layer
    redirection is not insignificant").

    Raises:
        ValueError: With no sessions.
    """
    if not len(sessions):
        raise ValueError("no sessions")
    return int(np.count_nonzero(sessions.sizes >= 2)) / len(sessions)


def gap_sensitivity(
    table: FlowTable,
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
    index = table.session_index()
    return {
        gap: SessionStatsAccumulator(index.session_sizes(gap)).histogram()
        for gap in gaps_s
    }
