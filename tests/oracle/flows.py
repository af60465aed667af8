"""Spec of :mod:`repro.core.flows`: the control/video size split."""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple

from repro.core.flows import CONTROL_FLOW_THRESHOLD_BYTES
from repro.reporting.series import Cdf
from repro.trace.records import FlowRecord


def classify_flows(
    records: Iterable[FlowRecord],
    threshold: int = CONTROL_FLOW_THRESHOLD_BYTES,
) -> Tuple[List[FlowRecord], List[FlowRecord]]:
    """Spec of :func:`repro.core.flows.classify_flows`: ``(control, video)``."""
    control: List[FlowRecord] = []
    video: List[FlowRecord] = []
    for record in records:
        if record.num_bytes >= threshold:
            video.append(record)
        else:
            control.append(record)
    return control, video


def flow_size_cdf(records: Sequence[FlowRecord]) -> Cdf:
    """Spec of :func:`repro.core.flows.flow_size_cdf`."""
    return Cdf(r.num_bytes for r in records)


def detect_size_threshold(
    records: Sequence[FlowRecord],
    low: float = 100.0,
    high: float = 1e6,
    bins_per_decade: int = 8,
) -> int:
    """Spec of :func:`repro.core.flows.detect_size_threshold`."""
    sizes = sorted(r.num_bytes for r in records if r.num_bytes > 0)
    if len(sizes) < 10:
        raise ValueError("need at least 10 flows to detect a threshold")
    log_low, log_high = math.log10(low), math.log10(high)
    num_bins = int((log_high - log_low) * bins_per_decade)
    counts = [0] * num_bins
    for size in sizes:
        position = (math.log10(size) - log_low) / (log_high - log_low)
        if 0.0 <= position < 1.0:
            counts[int(position * num_bins)] += 1
    # The valley: the emptiest bin between the two modes.
    first_nonzero = next((i for i, c in enumerate(counts) if c > 0), 0)
    last_nonzero = next(
        (num_bins - 1 - i for i, c in enumerate(reversed(counts)) if c > 0), num_bins - 1
    )
    if first_nonzero >= last_nonzero:
        return CONTROL_FLOW_THRESHOLD_BYTES
    valley = min(range(first_nonzero, last_nonzero + 1), key=lambda i: counts[i])
    edge = 10 ** (log_low + valley * (log_high - log_low) / num_bins)
    return int(edge)
