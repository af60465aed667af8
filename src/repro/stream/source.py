"""Stream sources: flow-log replay, and fault injection.

A replayed flow log is the one event source: a simulated week is
sealed into windows by the edge monitor itself
(:func:`repro.sim.engine.sealed_windows`) and never becomes events.  A
source yields :class:`~repro.stream.events.FlowArrival` and
:class:`~repro.stream.events.WatermarkAdvance` events, assigns emission
sequence numbers, honours the watermark contract (no later arrival
starts before the last watermark), and ends with an infinite watermark.

:func:`inject_disorder` is the fault-plan site for out-of-order
delivery: deterministically chosen records are held back and re-emitted
a few arrivals later, while the outgoing watermark is lagged below every
held record.  The disorder therefore stays *within* the watermark, the
windower's per-window sort absorbs it, and streamed outputs remain
byte-identical — which is exactly the resilience property the chaos
tests pin.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, Iterator, List, Union

from repro.faults import report as degradation
from repro.faults.plan import FaultPlan, active_plan
from repro.stream.events import FlowArrival, WatermarkAdvance
from repro.trace.logio import iter_flow_log
from repro.trace.records import FlowRecord

#: Ceiling on how many arrivals an injected-disorder record is delayed by.
_MAX_DISORDER_DELAY = 7


def replay_records(
    records: Iterable[FlowRecord],
    watermark_lag_s: float = 0.0,
    source_label: str = "<records>",
) -> Iterator[object]:
    """Replay an in-memory record sequence as a stream.

    Arrivals keep the sequence's order (their ``seq`` is the sequence
    position, the batch path's tie-break); the watermark trails the
    highest ``t_start`` seen by ``watermark_lag_s``, so a sequence that
    is sorted — or locally shuffled within the lag — replays without
    drops.  Records arriving more than the lag out of order fall behind
    the watermark and are dropped (and counted) by the windower.
    """
    events = _replay(records, watermark_lag_s)
    return _maybe_disordered(events, source_label)


def replay_flow_log(
    path: Union[str, Path], watermark_lag_s: float = 0.0
) -> Iterator[object]:
    """Stream a flow-log file (see :func:`replay_records`).

    Reads through :func:`repro.trace.logio.iter_flow_log`, so line-level
    parsing, ``line_garble`` injection and degradation accounting are
    identical to the batch reader — one record in memory at a time.
    """
    events = _replay(iter_flow_log(path), watermark_lag_s)
    return _maybe_disordered(events, Path(path).name)


def _replay(records: Iterable[FlowRecord], watermark_lag_s: float) -> Iterator[object]:
    if watermark_lag_s < 0:
        raise ValueError("watermark_lag_s must be >= 0")
    watermark = -math.inf
    for seq, record in enumerate(records):
        advanced = record.t_start - watermark_lag_s
        if advanced > watermark:
            watermark = advanced
            yield WatermarkAdvance(t_s=watermark)
        yield FlowArrival(record=record, seq=seq)
    yield WatermarkAdvance(t_s=math.inf)


def _maybe_disordered(events: Iterator[object], source_label: str) -> Iterator[object]:
    plan = active_plan()
    if plan is None or plan.record_disorder <= 0.0:
        return events
    return inject_disorder(events, plan, source_label)


def inject_disorder(
    events: Iterable[object], plan: FaultPlan, source_label: str
) -> Iterator[object]:
    """Deterministically delay chosen arrivals, within the watermark.

    Each arrival is held with probability ``plan.record_disorder``
    (decided purely from ``(plan.seed, source_label, seq)``) and released
    after a derived 1..7 further arrivals.  Outgoing watermarks are
    capped at the earliest held record's ``t_start``, so the windower
    never seals a window a held record still belongs to.  Held records
    still in flight when the stream ends are flushed before the final
    watermark.  The total disordered count is recorded as degradation.
    """
    held: List[List[object]] = []  # [release_after_count, FlowArrival]
    count = 0
    disordered = 0
    try:
        for event in events:
            if isinstance(event, FlowArrival):
                count += 1
                if plan.decide(
                    plan.record_disorder, "stream/disorder", source_label, str(event.seq)
                ):
                    delay = 1 + int(
                        plan.unit("stream/disorder-delay", source_label, str(event.seq))
                        * _MAX_DISORDER_DELAY
                    )
                    held.append([count + delay, event])
                    disordered += 1
                else:
                    yield event
                due = [pair for pair in held if pair[0] <= count]
                if due:
                    held = [pair for pair in held if pair[0] > count]
                    due.sort(key=lambda pair: (pair[0], pair[1].seq))
                    for _, arrival in due:
                        yield arrival
            else:
                if math.isinf(event.t_s) and held:
                    held.sort(key=lambda pair: pair[1].seq)
                    for _, arrival in held:
                        yield arrival
                    held = []
                floor = min((pair[1].record.t_start for pair in held),
                            default=math.inf)
                yield WatermarkAdvance(t_s=min(event.t_s, floor))
    finally:
        if disordered:
            degradation.record("stream/source", degraded=1, disordered=disordered)
