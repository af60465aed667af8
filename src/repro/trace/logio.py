"""Flow-log text I/O.

Tab-separated, one flow per line, with a commented header — close to the
Tstat log format the paper's datasets came in.  Round-trips exactly through
:func:`write_flow_log` / :func:`read_flow_log`.  :func:`sealed_log_windows`
replays a log as the tumbling windows a simulated week is sealed into.

An active :class:`~repro.faults.plan.FaultPlan` injects the failure mode
real Tstat logs show — a garbled or truncated line from a partial write or
a log-rotation race (``line_garble``): deterministically chosen lines are
truncated mid-parse, then skipped and recorded as degradation instead of
aborting the study.  Genuinely malformed input still raises: the injection
layer forgives only the faults it creates.
"""

from __future__ import annotations

import io
import math
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Union

import numpy as np

from repro.faults import report as degradation
from repro.faults.plan import FaultPlan, active_plan
from repro.net.ip import format_ip, parse_ip
from repro.trace.columnar import RECORD_FIELDS, FlowTable, seal_rows, split_windows
from repro.trace.records import FlowRecord

_HEADER = "#src_ip\tdst_ip\tbytes\tt_start\tt_end\tvideo_id\tresolution"
_NUM_FIELDS = 7


def format_record(record: FlowRecord) -> str:
    """One log line for a flow record.

    Timestamps use Python's shortest-roundtrip float repr, so a written
    log parses back to bit-identical records.
    """
    return (
        f"{format_ip(record.src_ip)}\t{format_ip(record.dst_ip)}\t{record.num_bytes}\t"
        f"{record.t_start!r}\t{record.t_end!r}\t{record.video_id}\t{record.resolution}"
    )


#: Rows per :func:`update_digest` hash call: few enough that a chunk's
#: text stays small next to the columns it renders.
_DIGEST_CHUNK_LINES = 4096


def update_digest(digest, table: FlowTable) -> None:
    """Feed a flow table's flow-log lines into a running hash.

    The one content-digest serialisation: a batch dataset hashes its
    table in one call, a stream its sealed windows' tables in order, and
    both give the same hex digest for the same flows.  The lines are
    :func:`format_record`'s, each ending in a newline, rendered straight
    from the columns: a week has a few hundred distinct addresses and a
    few thousand videos, so each is formatted once, and the lines are
    hashed :data:`_DIGEST_CHUNK_LINES` at a time (the same bytes in the
    same order, so the same digest).

    Args:
        digest: A ``hashlib`` object, e.g. ``hashlib.sha256()``.
        table: The flows, in flow-log order.
    """
    cols = table.columns()
    video_ids = cols.video_ids.tolist()
    resolutions = cols.resolutions.tolist()
    for lo in range(0, len(table), _DIGEST_CHUNK_LINES):
        rows = slice(lo, lo + _DIGEST_CHUNK_LINES)
        lines = [
            f"{src}\t{dst}\t{num_bytes}\t{t_start!r}\t{t_end!r}\t"
            f"{video_ids[video]}\t{resolutions[resolution]}\n"
            for src, dst, num_bytes, t_start, t_end, video, resolution in zip(
                _formatted_ips(cols.src_ip[rows]),
                _formatted_ips(cols.dst_ip[rows]),
                cols.num_bytes[rows].tolist(),
                cols.t_start[rows].tolist(),
                cols.t_end[rows].tolist(),
                cols.video_code[rows].tolist(),
                cols.resolution_code[rows].tolist(),
            )
        ]
        digest.update("".join(lines).encode("ascii"))


def _formatted_ips(ips) -> List[str]:
    """Dotted quads of an address column, each distinct address formatted once."""
    uniq, code = np.unique(ips, return_inverse=True)
    names = [format_ip(ip) for ip in uniq.tolist()]
    return [names[i] for i in code.tolist()]


def parse_record(line: str, address: Callable[[str], int] = parse_ip) -> FlowRecord:
    """Parse one log line.

    Args:
        line: The log line.
        address: Parses a dotted quad; a reader passes a memoised one.

    Raises:
        ValueError: On malformed lines.
    """
    fields = line.rstrip("\n").split("\t")
    if len(fields) != _NUM_FIELDS:
        raise ValueError(f"expected {_NUM_FIELDS} fields, got {len(fields)}: {line!r}")
    return FlowRecord(
        src_ip=address(fields[0]),
        dst_ip=address(fields[1]),
        num_bytes=int(fields[2]),
        t_start=float(fields[3]),
        t_end=float(fields[4]),
        video_id=fields[5],
        resolution=fields[6],
    )


def write_flow_log(records: Iterable[FlowRecord], path: Union[str, Path]) -> int:
    """Write records to a flow-log file.

    Returns:
        Number of records written.
    """
    count = 0
    with open(path, "w", encoding="ascii") as handle:
        handle.write(_HEADER + "\n")
        for record in records:
            handle.write(format_record(record) + "\n")
            count += 1
    return count


def _parse_lines(lines: Iterable[str], source: str) -> Iterator[FlowRecord]:
    """Parse data lines one at a time, skipping the plan's garbled ones.

    The generator behind every reader: records are yielded as parsed, so
    a consumer holding one at a time runs in constant memory.  A log has
    a few hundred distinct addresses over its flows, so each distinct
    address is parsed once.  Skipped-line degradation is recorded when
    the generator is exhausted (or closed).

    Args:
        lines: Raw log lines (comments/blanks included).
        source: Stable source label for injection decisions (file name or
            ``"<string>"``), so the same plan garbles the same lines of
            the same log on every run.

    Raises:
        ValueError: On a malformed line the plan did not garble.
    """
    plan: Optional[FaultPlan] = active_plan()
    addresses: Dict[str, int] = {}

    def address(text: str) -> int:
        ip = addresses.get(text)
        if ip is None:
            ip = addresses[text] = parse_ip(text)
        return ip

    skipped = 0
    try:
        for index, line in enumerate(lines):
            if not line.strip() or line.startswith("#"):
                continue
            injected = plan is not None and plan.decide(
                plan.line_garble, "logio/garble", source, str(index)
            )
            if injected:
                line = line.rstrip("\n")[: max(0, len(line) // 2)]
            try:
                record = parse_record(line, address)
            except ValueError:
                if injected:
                    skipped += 1
                    continue
                raise
            yield record
    finally:
        if skipped:
            degradation.record("trace/logio", degraded=1, skipped=skipped)


def read_flow_log(path: Union[str, Path]) -> List[FlowRecord]:
    """Read a flow-log file back into records (comments skipped).

    Raises:
        ValueError: On a malformed line (see :func:`_parse_lines`).
    """
    with open(path, "r", encoding="ascii") as handle:
        return list(_parse_lines(handle, Path(path).name))


def iter_flow_log(path: Union[str, Path]) -> Iterator[FlowRecord]:
    """Stream a flow-log file record by record (constant memory).

    The streaming ingestion path's file source: parses the same lines,
    applies the same ``line_garble`` injection under the same labels, and
    records the same degradation as :func:`read_flow_log` — it just never
    holds more than one record.
    """
    with open(path, "r", encoding="ascii") as handle:
        yield from _parse_lines(handle, Path(path).name)


def sealed_log_windows(
    records: Iterable[FlowRecord], window_s: float, lag_s: float = 0.0
) -> Iterator[FlowTable]:
    """A flow log's tumbling windows ``[k·W, (k+1)·W)``, sealed as it is read.

    The rule :func:`repro.sim.engine.sealed_windows` applies to a
    simulated week, with the newest ``t_start`` read so far less
    ``lag_s`` as the clock: once the clock passes the end of its window,
    every record that starts before the clock's window is sealed
    (:func:`~repro.trace.columnar.seal_rows`) and cut into windows
    (:func:`~repro.trace.columnar.split_windows`).  The rest are sealed
    when the records run out.  File order breaks ``(t_start, t_end)``
    ties, so the windows concatenate to the stable-sorted table of the
    same records, and memory holds one window's records plus the lag's.

    Args:
        records: Flow records in file order, e.g. :func:`iter_flow_log`'s.
        window_s: Window width in seconds.
        lag_s: How far a record may start behind the newest ``t_start``
            read before it and still be windowed.

    Raises:
        ValueError: For a non-positive ``window_s`` or a negative
            ``lag_s``, and for a record that starts before the records
            already sealed: one more than the lag out of order.
    """
    if not window_s > 0:
        raise ValueError("window_s must be positive")
    if not lag_s >= 0:
        raise ValueError("lag_s must be >= 0")
    rows: List[FlowRecord] = []
    newest = sealed = end = -math.inf  # end: the end of the clock's window
    for record in records:
        t_start = record.t_start
        if t_start < sealed:
            behind = newest - t_start
            raise ValueError(
                f"flow with t_start {t_start!r} is {behind:g} s behind the newest flow, "
                f"more than --lag-s {lag_s:g}; --lag-s {math.ceil(behind)} would window it"
            )
        if t_start > newest:
            newest = t_start
        clock = t_start - lag_s
        if clock >= end:
            sealed = clock // window_s * window_s
            yield from split_windows(seal_rows(rows, sealed, RECORD_FIELDS), window_s)
            end = sealed + window_s
        rows.append(record)
    yield from split_windows(seal_rows(rows, math.inf, RECORD_FIELDS), window_s)


def dumps(records: Iterable[FlowRecord]) -> str:
    """Render records to a string (used by tests and examples)."""
    buffer = io.StringIO()
    buffer.write(_HEADER + "\n")
    for record in records:
        buffer.write(format_record(record) + "\n")
    return buffer.getvalue()


def loads(text: str) -> List[FlowRecord]:
    """Parse records from a string (see :func:`read_flow_log`)."""
    return list(_parse_lines(text.splitlines(), "<string>"))
