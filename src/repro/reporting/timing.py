"""Execution-timing reports: speedup, stragglers, and JSON artifacts.

The :class:`~repro.exec.executor.ParallelExecutor` records a wall-clock
:class:`~repro.exec.executor.TaskTiming` per unit of work; this module turns those
records into the benchmark-facing views — a straggler table and a JSON
document the CI benchmark-smoke job uploads as an artifact.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional, Sequence

from repro import obs
from repro.exec.executor import MapStats
from repro.reporting.tables import TextTable


def _is_phase(record: obs.SpanRecord) -> bool:
    return record.attrs.get("kind") == "phase"


@contextmanager
def phase_timer(name: str) -> Iterator[None]:
    """Accumulate the wall time of a named phase of the run.

    The pipeline wraps its analysis stages (session building, the gap
    sweep, the hot-spot scans) with this, so ``timing_*.json`` breaks out
    where a study's analysis time goes.  Nested/repeated uses of one name
    accumulate.

    This is now a thin shim over :func:`repro.obs.tracer.span`: a phase is a
    span with ``kind="phase"``, recorded on the current run's tracer.
    Phase accounting is therefore scoped to the run — sequential studies
    in one process no longer bleed phase times into each other — and the
    same region shows up in ``repro trace`` output.  Disabled (zero
    cost, empty summaries) when ``REPRO_TRACE=off``.
    """
    with obs.span(name, kind="phase"):
        yield


def phases_summary(reset: bool = False) -> Dict[str, float]:
    """A copy of the accumulated per-phase wall times, name → seconds."""
    from repro.obs.export import phase_times

    tracer = obs.current_run().tracer
    snapshot = phase_times(tracer.records)
    if reset:
        tracer.drop(_is_phase)
    return snapshot


def timing_summary(
    stats: Sequence[MapStats],
    cache: Optional[Dict[str, Any]] = None,
    phases: Optional[Dict[str, float]] = None,
    degradation: Optional[Any] = None,
    metrics: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Aggregate a run's map batches into one JSON-ready summary.

    Args:
        stats: Map-batch statistics from the executor.
        cache: Optional artifact-cache summary (the shape returned by
            :meth:`repro.artifacts.store.ArtifactStore.stats_summary`);
            included verbatim under ``"cache"`` when given, so the timing
            artifact records how much of the run was served from cache.
        phases: Optional per-phase wall times (the shape returned by
            :func:`phases_summary`); included under ``"phases"`` when
            non-empty, so the analysis-phase breakdown lands in
            ``timing_*.json``.
        degradation: Optional
            :class:`~repro.faults.report.DegradationReport`; its
            per-stage counters land under ``"degradation"`` so chaos
            runs' timing artifacts record what was absorbed.
        metrics: Optional observability snapshot (the shape returned by
            :meth:`repro.obs.MetricsRegistry.snapshot`); included under
            ``"metrics"`` when non-empty, so the timing artifact carries
            the run's cache/retry/probe counters and latency histograms.

    Returns:
        A dict with the backend, wall/task seconds, the observed speedup
        (serial-equivalent over wall), the straggler, and per-task rows.
    """
    backend = stats[0].backend if stats else "serial"
    wall_s = sum(s.wall_s for s in stats)
    task_s = sum(s.task_seconds for s in stats)
    retries = sum(getattr(s, "retries", 0) for s in stats)
    rows = [
        {
            "label": t.label,
            "seconds": round(t.seconds, 6),
            "ok": t.ok,
            "dispatch_bytes": t.dispatch_bytes,
            "result_bytes": t.result_bytes,
        }
        for s in stats
        for t in s.timings
    ]
    straggler = max(rows, key=lambda r: r["seconds"], default=None)
    summary: Dict[str, Any] = {
        "backend": backend,
        "batches": len(stats),
        "tasks": len(rows),
        "retries": retries,
        "wall_seconds": round(wall_s, 6),
        "task_seconds": round(task_s, 6),
        "speedup": round(task_s / wall_s, 3) if wall_s > 0 else 1.0,
        "dispatch_bytes": sum(r["dispatch_bytes"] for r in rows),
        "result_bytes": sum(r["result_bytes"] for r in rows),
        "straggler": straggler,
        "timings": rows,
    }
    if cache is not None:
        summary["cache"] = cache
    if phases:
        summary["phases"] = dict(phases)
    if degradation is not None and degradation.stages:
        summary["degradation"] = degradation.as_dict()
    if metrics and any(metrics.get(k) for k in ("counters", "gauges", "histograms")):
        summary["metrics"] = metrics
    return summary


def write_timing_json(
    stats: Sequence[MapStats],
    path,
    cache: Optional[Dict[str, Any]] = None,
    phases: Optional[Dict[str, float]] = None,
    metrics: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Write :func:`timing_summary` to ``path``; returns the summary."""
    summary = timing_summary(stats, cache=cache, phases=phases, metrics=metrics)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return summary


def render_degradation_table(report: Any) -> str:
    """A text view of a :class:`~repro.faults.report.DegradationReport`.

    One row per stage plus the ``TOTAL`` pseudo-stage; the four core
    counters come first, any ad-hoc counters a stage recorded (lost
    probes, timeouts, quarantined objects) follow alphabetically.
    """
    from repro.faults.report import CORE_COUNTERS

    doc = report.as_dict()
    extras = sorted(
        {name for tally in doc.values() for name in tally} - set(CORE_COUNTERS)
    )
    columns = ["stage", *CORE_COUNTERS, *extras]
    table = TextTable(columns, title="DEGRADATION REPORT")
    for stage, tally in doc.items():
        table.add_row(stage, *(tally.get(name, 0) for name in columns[1:]))
    return table.render()


def render_cache_table(summary: Dict[str, Any]) -> str:
    """A text view of an artifact-cache ``stats_summary()`` document.

    One row per stage plus a totals row, drawn from the store's lifetime
    ledger; the session counters and disk footprint follow underneath.
    """
    columns = ["stage", "hits", "misses", "puts", "MB read", "MB written"]
    table = TextTable(columns, title="ARTIFACT CACHE")
    lifetime = summary.get("lifetime", {})
    stages = lifetime.get("stages", {})
    for stage in sorted(stages):
        row = stages[stage]
        table.add_row(
            stage,
            row.get("hits", 0),
            row.get("misses", 0),
            row.get("puts", 0),
            f"{row.get('bytes_read', 0) / 1e6:.1f}",
            f"{row.get('bytes_written', 0) / 1e6:.1f}",
        )
    totals = lifetime.get("total", {})
    table.add_row(
        "TOTAL",
        totals.get("hits", 0),
        totals.get("misses", 0),
        totals.get("puts", 0),
        f"{totals.get('bytes_read', 0) / 1e6:.1f}",
        f"{totals.get('bytes_written', 0) / 1e6:.1f}",
    )
    disk = summary.get("disk", {})
    objects_line = (
        f"objects: {disk.get('objects', 0)} ({disk.get('total_bytes', 0) / 1e6:.1f} MB on disk)"
    )
    lines = [table.render(), "", f"root:    {summary.get('root', '?')}", objects_line]
    columnar = summary.get("columnar")
    if columnar is not None:
        lines.append(
            f"columnar: {columnar.get('tables', 0)} live tables "
            f"({columnar.get('resident_bytes', 0) / 1e6:.1f} MB resident)"
        )
    return "\n".join(lines)
