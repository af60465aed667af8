"""Spec of the flow-log line format of :mod:`repro.trace.logio`."""

from __future__ import annotations

from repro.net.ip import format_ip
from repro.trace.records import FlowRecord


def format_record(record: FlowRecord) -> str:
    """One log line for a flow record, without its newline.

    Timestamps use Python's shortest-roundtrip float repr, so a written
    log parses back to bit-identical records.
    """
    return (
        f"{format_ip(record.src_ip)}\t{format_ip(record.dst_ip)}\t{record.num_bytes}\t"
        f"{record.t_start!r}\t{record.t_end!r}\t{record.video_id}\t{record.resolution}"
    )
