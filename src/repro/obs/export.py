"""Trace views: JSONL persistence, span-tree rendering, Chrome export, diff.

One in-memory trace yields three artifact views:

1. ``trace_<run>.jsonl`` — one JSON object per line: a ``run`` header,
   every finished span, and a ``metrics`` footer.  The durable form that
   ``repro trace`` subcommands consume.
2. Chrome ``trace_event`` JSON — open in ``chrome://tracing`` or
   https://ui.perfetto.dev to flame-graph straggler tasks; each worker
   task gets its own track.
3. The metrics snapshot — the JSONL footer, and the counters of
   ``repro trace summary``.

All views are derived, deterministic renderings of the same spans; none
of them feeds back into any computation or cache key.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.obs.runctx import RunContext
from repro.obs.tracer import SpanRecord

#: Trace file format tag (bump on incompatible JSONL changes).
TRACE_FORMAT = 1


@dataclass
class TraceDoc:
    """A parsed trace file: the run's spans plus its metrics snapshot."""

    run_id: str
    spans: List[SpanRecord] = field(default_factory=list)
    metrics: Dict[str, Any] = field(default_factory=dict)

    def roots(self) -> List[SpanRecord]:
        """Top-level spans (no parent), in start order."""
        return sorted(
            (s for s in self.spans if s.parent_id is None),
            key=lambda s: (s.t_start, s.span_id),
        )

    def children(self) -> Dict[Optional[str], List[SpanRecord]]:
        """Parent id → child spans, each list in start order."""
        by_parent: Dict[Optional[str], List[SpanRecord]] = {}
        for span in self.spans:
            by_parent.setdefault(span.parent_id, []).append(span)
        for siblings in by_parent.values():
            siblings.sort(key=lambda s: (s.t_start, s.span_id))
        return by_parent

    def exclusive_s(self, span: SpanRecord,
                    children: Dict[Optional[str], List[SpanRecord]]) -> float:
        """Inclusive time minus the time covered by direct children."""
        child_s = sum(c.inclusive_s for c in children.get(span.span_id, ()))
        return max(0.0, span.inclusive_s - child_s)


# ------------------------------------------------------------------ JSONL IO


def trace_lines(run: RunContext) -> List[str]:
    """The JSONL lines for a run's trace (header, spans, metrics footer)."""
    lines = [json.dumps(
        {"type": "run", "run_id": run.run_id, "format": TRACE_FORMAT},
        separators=(",", ":"),
    )]
    for span in sorted(run.tracer.records, key=lambda s: (s.t_start, s.span_id)):
        lines.append(json.dumps(
            {
                "type": "span",
                "id": span.span_id,
                "parent": span.parent_id,
                "name": span.name,
                "start": round(span.t_start, 9),
                "end": round(span.t_end, 9),
                "attrs": span.attrs,
                "counters": span.counters,
            },
            separators=(",", ":"), sort_keys=True, default=str,
        ))
    lines.append(json.dumps(
        {"type": "metrics", "data": run.metrics.snapshot()},
        separators=(",", ":"), sort_keys=True,
    ))
    return lines


def write_trace(run: RunContext, out_dir: Union[str, Path]) -> Path:
    """Write ``trace_<run>.jsonl`` into ``out_dir``; returns the path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"trace_{run.run_id}.jsonl"
    path.write_text("\n".join(trace_lines(run)) + "\n", encoding="utf-8")
    return path


def read_trace(path: Union[str, Path]) -> TraceDoc:
    """Parse a ``trace_*.jsonl`` file back into a :class:`TraceDoc`.

    Raises:
        ValueError: For files that are not a trace JSONL.
    """
    doc = TraceDoc(run_id="?")
    seen_header = False
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except ValueError as error:
            raise ValueError(f"{path}: malformed trace line: {error}") from error
        kind = entry.get("type")
        if kind == "run":
            doc.run_id = entry.get("run_id", "?")
            seen_header = True
        elif kind == "span":
            try:
                doc.spans.append(SpanRecord(
                    span_id=entry["id"],
                    parent_id=entry.get("parent"),
                    name=entry["name"],
                    t_start=float(entry["start"]),
                    t_end=float(entry["end"]),
                    attrs=entry.get("attrs", {}),
                    counters=entry.get("counters", {}),
                ))
            except (KeyError, TypeError, ValueError) as error:
                raise ValueError(
                    f"{path}: malformed span entry: {error!r}"
                ) from error
        elif kind == "metrics":
            doc.metrics = entry.get("data", {})
    if not seen_header:
        raise ValueError(f"{path}: not a repro trace file (no run header)")
    return doc


# ------------------------------------------------------------------ summaries


def _format_counters(counters: Dict[str, float]) -> str:
    if not counters:
        return ""
    cells = " ".join(f"{name}={counters[name]:g}" for name in sorted(counters))
    return f"  [{cells}]"


def render_summary(doc: TraceDoc, max_depth: Optional[int] = None) -> str:
    """The span tree with inclusive/exclusive times, one line per span."""
    children = doc.children()
    lines = [f"TRACE {doc.run_id}", f"{'span':<44s} {'incl s':>9s} {'excl s':>9s}"]

    def walk(span: SpanRecord, depth: int) -> None:
        name = "  " * depth + span.name
        excl = doc.exclusive_s(span, children)
        lines.append(
            f"{name:<44s} {span.inclusive_s:9.3f} {excl:9.3f}"
            f"{_format_counters(span.counters)}"
        )
        if max_depth is not None and depth + 1 >= max_depth:
            return
        for child in children.get(span.span_id, ()):
            walk(child, depth + 1)

    for root in doc.roots():
        walk(root, 0)
    counters = doc.metrics.get("counters", {})
    if counters:
        lines.append("")
        lines.append("COUNTERS")
        for name in sorted(counters):
            lines.append(f"  {name:<50s} {counters[name]:g}")
    return "\n".join(lines)


def summary_dict(doc: TraceDoc, max_depth: Optional[int] = None) -> Dict[str, Any]:
    """The span tree as a JSON-ready document (``repro trace summary --json``).

    The machine-readable twin of :func:`render_summary`: the same tree,
    depth limit, inclusive/exclusive seconds, and metrics counters, but
    as nested objects a CI script can walk without screen-scraping the
    fixed-width table.
    """
    children = doc.children()

    def node(span: SpanRecord, depth: int) -> Dict[str, Any]:
        entry: Dict[str, Any] = {
            "name": span.name,
            "inclusive_s": round(span.inclusive_s, 6),
            "exclusive_s": round(doc.exclusive_s(span, children), 6),
        }
        if span.attrs:
            entry["attrs"] = dict(span.attrs)
        if span.counters:
            entry["counters"] = dict(span.counters)
        if max_depth is not None and depth + 1 >= max_depth:
            return entry
        kids = children.get(span.span_id, ())
        if kids:
            entry["children"] = [node(child, depth + 1) for child in kids]
        return entry

    return {
        "run_id": doc.run_id,
        "spans": [node(root, 0) for root in doc.roots()],
        "counters": dict(doc.metrics.get("counters", {})),
        "gauges": dict(doc.metrics.get("gauges", {})),
    }


def render_slowest(doc: TraceDoc, top: int = 10) -> str:
    """The ``top`` spans by exclusive time — where the run actually went."""
    children = doc.children()
    rows = sorted(
        ((doc.exclusive_s(s, children), s) for s in doc.spans),
        key=lambda pair: -pair[0],
    )[:top]
    lines = [f"{'excl s':>9s} {'incl s':>9s}  span"]
    for excl, span in rows:
        lines.append(f"{excl:9.3f} {span.inclusive_s:9.3f}  {span.name} ({span.span_id})")
    return "\n".join(lines)


def inclusive_by_name(doc: TraceDoc) -> Dict[str, float]:
    """Total inclusive seconds per span name (the diff aggregation)."""
    totals: Dict[str, float] = {}
    for span in doc.spans:
        totals[span.name] = totals.get(span.name, 0.0) + span.inclusive_s
    return totals


def render_diff(a: TraceDoc, b: TraceDoc, top: int = 10) -> str:
    """Top regressions between two traces, by per-name inclusive time.

    Positive delta = ``b`` spent longer than ``a`` (a regression when
    ``a`` is the baseline).  Names missing from one side count as zero.
    """
    totals_a = inclusive_by_name(a)
    totals_b = inclusive_by_name(b)
    names = sorted(set(totals_a) | set(totals_b))
    rows = sorted(
        ((totals_b.get(n, 0.0) - totals_a.get(n, 0.0), n) for n in names),
        key=lambda pair: -abs(pair[0]),
    )[:top]
    lines = [
        f"TRACE DIFF  a={a.run_id}  b={b.run_id}",
        f"{'delta s':>9s} {'a s':>9s} {'b s':>9s}  span",
    ]
    for delta, name in rows:
        lines.append(
            f"{delta:+9.3f} {totals_a.get(name, 0.0):9.3f} "
            f"{totals_b.get(name, 0.0):9.3f}  {name}"
        )
    return "\n".join(lines)


# ------------------------------------------------------------- Chrome export


def _track_of(span_id: str) -> str:
    """The Chrome track key: a worker task's id namespace, else main."""
    head, sep, _ = span_id.rpartition(".")
    return head if sep else ""


def to_chrome(doc: TraceDoc) -> Dict[str, Any]:
    """The trace as Chrome ``trace_event`` JSON (complete ``X`` events).

    The main process's spans share ``tid`` 1; every worker task capture
    gets its own ``tid`` so pool concurrency renders as parallel tracks
    in ``chrome://tracing`` / Perfetto.
    """
    tids: Dict[str, int] = {"": 1}
    events: List[Dict[str, Any]] = []
    for span in sorted(doc.spans, key=lambda s: (s.t_start, s.span_id)):
        track = _track_of(span.span_id)
        tid = tids.setdefault(track, len(tids) + 1)
        args: Dict[str, Any] = dict(span.attrs)
        if span.counters:
            args["counters"] = dict(span.counters)
        args["span_id"] = span.span_id
        events.append({
            "name": span.name,
            "ph": "X",
            "ts": round(span.t_start * 1e6, 3),
            "dur": round(span.inclusive_s * 1e6, 3),
            "pid": 1,
            "tid": tid,
            "args": args,
        })
    thread_names = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": tid,
            "args": {"name": "main" if track == "" else f"task {track}"},
        }
        for track, tid in sorted(tids.items(), key=lambda item: item[1])
    ]
    return {
        "traceEvents": thread_names + events,
        "displayTimeUnit": "ms",
        "otherData": {"run_id": doc.run_id},
    }


def write_chrome(doc: TraceDoc, path: Union[str, Path]) -> Path:
    """Write the Chrome ``trace_event`` view to ``path``; returns it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(to_chrome(doc), indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path
