"""Spec of :mod:`repro.core.flows`: the control/video size split."""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.flows import CONTROL_FLOW_THRESHOLD_BYTES, FlowClasses
from repro.reporting.series import Cdf
from repro.trace.records import FlowRecord


def classify_flows(
    records: Iterable[FlowRecord],
    threshold: int = CONTROL_FLOW_THRESHOLD_BYTES,
) -> FlowClasses:
    """Spec of :func:`repro.core.flows.classify_flows`."""
    classes = FlowClasses()
    for record in records:
        if record.num_bytes >= threshold:
            classes.video.append(record)
        else:
            classes.control.append(record)
    return classes


def flow_size_cdf(records: Sequence[FlowRecord]) -> Cdf:
    """Spec of :func:`repro.core.flows.flow_size_cdf`."""
    return Cdf(r.num_bytes for r in records)
