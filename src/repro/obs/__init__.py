"""Unified observability: hierarchical spans + run-scoped metrics.

``repro.obs`` is the one home for "what happened and how long did it
take" across the pipeline.  The pieces:

* :mod:`repro.obs.tracer` — span recording (``span(...)`` context
  manager), ambient counter/histogram helpers, and the cross-process
  propagation machinery (:class:`SpanContext` out, :class:`TaskCapture`
  back).
* :mod:`repro.obs.metrics` — the labelled counter/gauge/histogram
  registry that snapshots into the trace's metrics footer.
* :mod:`repro.obs.runctx` — the per-run context scoping the tracer and
  metrics (degradation counters included), fixing the old cross-run
  accumulation leaks.
* :mod:`repro.obs.export` — trace JSONL, Chrome ``trace_event`` export,
  and the summary/slowest/diff renderers behind ``repro trace``.

The package re-exports the span, counter and run-context names, because
every command loads them anyway; import the exporters from
:mod:`repro.obs.export`, which only traced runs and ``repro trace`` load.

Set ``REPRO_TRACE=off`` to disable everything; the study's outputs are
byte-identical either way because nothing here touches RNG state or
artifact-cache keys.
"""

from repro.obs.metrics import MetricsRegistry
from repro.obs.runctx import current_run, new_run, set_current_run
from repro.obs.tracer import (
    ENV_TRACE,
    ENV_TRACE_DIR,
    SpanContext,
    SpanRecord,
    TaskCapture,
    inc,
    merge_capture,
    observe,
    set_gauge,
    span,
    task_capture,
    trace_enabled,
)

__all__ = [
    "ENV_TRACE",
    "ENV_TRACE_DIR",
    "MetricsRegistry",
    "SpanContext",
    "SpanRecord",
    "TaskCapture",
    "current_run",
    "inc",
    "merge_capture",
    "new_run",
    "observe",
    "set_current_run",
    "set_gauge",
    "span",
    "task_capture",
    "trace_enabled",
]
