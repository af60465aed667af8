"""Tumbling windows and incremental session building.

:class:`TumblingWindower` partitions arrivals into aligned windows
``[k*w, (k+1)*w)`` keyed by ``t_start`` and seals a window once the
watermark passes its end — at which point no in-watermark arrival can
still belong to it.  Sealed windows come out in index order with records
sorted by ``(t_start, t_end, seq)``, so the concatenation of all sealed
windows is exactly the batch dataset's record order: windows partition
the ``t_start`` axis in order, and within a window the sort reproduces
the global stable ``(t_start, t_end)`` sort (``seq`` carries the batch
tie-break).  That identity is what makes every downstream digest and
table byte-identical to the batch path.

:class:`WindowedSessionBuilder` is the incremental form of
:func:`repro.core.sessions.build_sessions` and splits each window with
it, keeping only the last session of each (client, video) group open.
A session closes once the sealed boundary passes ``horizon + gap``:
every flow that could still join would start before the boundary, and
all such flows have already arrived.  Memory follows the number of
*concurrently active* (client, video) pairs, not the flow count.

:func:`drive` is the one loop that pushes events through a windower,
folds each sealed window and closes sessions as the boundary moves.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.core.sessions import Session, build_sessions
from repro.stream.events import FlowArrival, StreamWindow, WatermarkAdvance
from repro.trace.columnar import FlowTable
from repro.trace.records import FlowRecord


class TumblingWindower:
    """Seals a watermarked event stream into :class:`StreamWindow` batches.

    Args:
        window_s: Window width in seconds.

    Attributes:
        late_records: Arrivals dropped because their window was already
            sealed (a source violated its watermark promise).  The driver
            reports them as degradation.
    """

    def __init__(self, window_s: float):
        if not window_s > 0:
            raise ValueError("window_s must be positive")
        self._window_s = window_s
        self._pending: Dict[int, List[Tuple[FlowRecord, int]]] = {}
        self._watermark = -math.inf
        self._sealed_until: Optional[int] = None  # indices below this are sealed
        self._all_sealed = False
        self.late_records = 0

    @property
    def window_s(self) -> float:
        """The window width."""
        return self._window_s

    @property
    def watermark(self) -> float:
        """The highest watermark seen."""
        return self._watermark

    @property
    def sealed_boundary_s(self) -> float:
        """Every flow starting before this instant has been sealed or dropped.

        The safe horizon for incremental consumers: session closing uses
        this, not the raw watermark, because flows between the boundary
        and the watermark may still sit in an unsealed window.
        """
        if self._all_sealed:
            return math.inf
        if self._sealed_until is None:
            return -math.inf
        return self._sealed_until * self._window_s

    def push(self, event: Union[FlowArrival, WatermarkAdvance]) -> List[StreamWindow]:
        """Feed one event; return any windows it sealed (possibly none)."""
        if isinstance(event, FlowArrival):
            index = int(event.record.t_start // self._window_s)
            if self._all_sealed or (
                self._sealed_until is not None and index < self._sealed_until
            ):
                self.late_records += 1
                return []
            self._pending.setdefault(index, []).append((event.record, event.seq))
            return []
        return self.advance(event.t_s)

    def advance(self, t_s: float) -> List[StreamWindow]:
        """Advance the watermark; seal and return every window it passes.

        Raises:
            ValueError: If the watermark regresses.
        """
        if t_s < self._watermark:
            raise ValueError(f"watermark regressed: {t_s!r} < {self._watermark!r}")
        self._watermark = t_s
        sealed: List[StreamWindow] = []
        for index in sorted(self._pending):
            if not (math.isinf(t_s) or (index + 1) * self._window_s <= t_s):
                break
            sealed.append(self._seal(index))
        if math.isinf(t_s):
            self._all_sealed = True
        else:
            boundary = int(t_s // self._window_s)
            if self._sealed_until is None or boundary > self._sealed_until:
                self._sealed_until = boundary
        return sealed

    def finish(self) -> List[StreamWindow]:
        """Seal everything still pending (equivalent to an infinite watermark)."""
        return self.advance(math.inf)

    def _seal(self, index: int) -> StreamWindow:
        tagged = self._pending.pop(index)
        tagged.sort(key=lambda pair: (pair[0].t_start, pair[0].t_end, pair[1]))
        return StreamWindow(
            index=index,
            t_lo=index * self._window_s,
            t_hi=(index + 1) * self._window_s,
            table=FlowTable([record for record, _ in tagged]),
        )


class WindowedSessionBuilder:
    """Incremental gap-T session construction over sealed windows.

    Produces exactly the sessions of
    :func:`repro.core.sessions.build_sessions` over the concatenated
    window records (same membership, same per-session flow order);
    emission order follows session *closing* time rather than the batch's
    (client, video) group order.

    Args:
        gap_s: The session gap T.
    """

    def __init__(self, gap_s: float):
        if gap_s <= 0:
            raise ValueError("gap_s must be positive")
        self._gap_s = gap_s
        # (client, video) -> (last session, its horizon = max member t_end)
        self._open: Dict[Tuple[int, str], Tuple[Session, float]] = {}

    def observe_window(self, window: StreamWindow) -> List[Session]:
        """Feed one sealed window; return sessions its flows broke closed.

        The open sessions' flows and the window's records are split by
        :func:`~repro.core.sessions.build_sessions` as one table.  Carried
        flows started in earlier windows, so the stable sort keeps them
        ahead of the window's flows in their group.  Every session but
        the last of a group is final; the last stays open.
        """
        carried = [flow for session, _ in self._open.values() for flow in session.flows]
        sessions = build_sessions(FlowTable(carried + window.records), self._gap_s)
        self._open = {}
        closed: List[Session] = []
        for session, following in zip(sessions, sessions[1:] + [None]):
            key = (session.client_ip, session.video_id)
            if following is not None and (following.client_ip, following.video_id) == key:
                closed.append(session)
            else:
                # After a break the new flow's t_end exceeds every earlier
                # t_end of the group, so the last session's own max is the
                # group horizon the gap rule compares against.
                self._open[key] = (session, max(flow.t_end for flow in session.flows))
        return closed

    def advance(self, sealed_boundary_s: float) -> List[Session]:
        """Close every session no sealed-or-future flow can join.

        Args:
            sealed_boundary_s: The windower's
                :attr:`~TumblingWindower.sealed_boundary_s` — every flow
                starting before it has already been fed.  A session whose
                ``horizon + gap`` lies at or below the boundary is final:
                any joining flow would start before ``horizon + gap``.
        """
        closed: List[Session] = []
        for key, (session, horizon) in list(self._open.items()):
            if horizon + self._gap_s <= sealed_boundary_s:
                closed.append(session)
                del self._open[key]
        return closed

    def finish(self) -> List[Session]:
        """Close everything still open (end of stream)."""
        return self.advance(math.inf)


def drive(
    events: Iterable[Union[FlowArrival, WatermarkAdvance]],
    windower: TumblingWindower,
    on_window: Callable[[StreamWindow], None],
    builder: Optional[WindowedSessionBuilder] = None,
    on_sessions: Callable[[List[Session]], None] = lambda sessions: None,
) -> None:
    """Push every event through ``windower`` and fold what it seals.

    Each sealed window goes to ``on_window``, then to the ``builder``,
    which also closes sessions whenever the sealed boundary moves; closed
    sessions go to ``on_sessions``.  When the events run out, everything
    still pending is sealed and closed.
    """
    last_boundary = -math.inf

    def seal(windows: List[StreamWindow]) -> None:
        for window in windows:
            on_window(window)
            if builder is not None:
                on_sessions(builder.observe_window(window))

    for event in events:
        seal(windower.push(event))
        boundary = windower.sealed_boundary_s
        if builder is not None and boundary > last_boundary:
            # The boundary moves once per window period, so session
            # sweeps are per-window, not per-event.
            last_boundary = boundary
            on_sessions(builder.advance(boundary))
    seal(windower.finish())
    if builder is not None:
        on_sessions(builder.finish())
