"""Hierarchical span tracing with cross-process propagation.

A *span* is one timed region of the run — a pipeline stage, an executor
batch, one worker task — identified by a run-local id and linked to its
parent, so a finished run yields one tree whose root inclusive time is
the run's wall time.  Design constraints, in order:

* **Deterministic-safe.**  Span ids come from a run-local counter —
  never ``uuid`` or wall-clock entropy — and nothing here ever enters an
  artifact-cache key, so tracing cannot perturb cached results.
* **A true kill-switch.**  ``REPRO_TRACE=off`` makes every entry point a
  no-op: no spans, no metrics, byte-identical study output.
* **Overhead-bounded.**  Spans are coarse (stages, batches, tasks — not
  per-flow), recording is an append to an in-memory list, and the
  enabled check is one environment read.

Cross-process propagation: pool workers are forked, so the *enabled*
flag (``REPRO_TRACE``) is simply inherited, while the span linkage
rides pickle — the executor hands each task a :class:`SpanContext`
naming the dispatching span, the task records into a capture-local
:class:`Tracer`, and the finished :class:`TaskCapture` (spans + metrics)
returns with the task's result to be merged into the dispatching
process's trace, rebased onto its clock.  In-process tasks take the same
path, so a trace has one shape whichever path a batch took.

Spans are recorded on the main thread only (the executor's workers are
processes), so the span stack and the capture stack are plain state.
"""

from __future__ import annotations

import itertools
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterator, List, Optional

from repro.obs.metrics import MetricsRegistry

#: Environment variable switching tracing off (``off``/``0``/``false``/
#: ``no``); anything else — including unset — leaves it on.
ENV_TRACE = "REPRO_TRACE"

#: Environment variable naming a directory to auto-export
#: ``trace_<run>.jsonl`` into at the end of a CLI run.
ENV_TRACE_DIR = "REPRO_TRACE_DIR"

_OFF_VALUES = ("0", "off", "false", "no")


def trace_enabled() -> bool:
    """Whether tracing (spans, metrics) is on (``REPRO_TRACE``)."""
    return os.environ.get(ENV_TRACE, "").strip().lower() not in _OFF_VALUES


@dataclass(frozen=True)
class SpanRecord:
    """One finished span.  Plain data; pickles and serialises.

    Attributes:
        span_id: Run-local id (``s3``; worker spans are dot-prefixed by
            their task's namespace, e.g. ``s2.t1.a1.s3``).
        parent_id: Enclosing span's id (``None`` for the root).
        name: Span name, namespaced like ``"exec/map"``.
        t_start: Start offset in seconds from the run's monotonic origin.
        t_end: End offset, same origin.
        attrs: Free-form attributes set at entry or during the span.
        counters: Counter increments recorded while this span was
            innermost (see :func:`repro.obs.inc`).
    """

    span_id: str
    parent_id: Optional[str]
    name: str
    t_start: float
    t_end: float
    attrs: Dict[str, Any] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def inclusive_s(self) -> float:
        """Wall time covered by this span, children included."""
        return self.t_end - self.t_start


@dataclass
class ActiveSpan:
    """A span that is still open; mutate ``attrs`` / ``count()`` freely."""

    span_id: str
    parent_id: Optional[str]
    name: str
    t_start: float
    attrs: Dict[str, Any] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)

    def count(self, name: str, n: float = 1) -> None:
        """Fold a counter increment into this span."""
        self.counters[name] = self.counters.get(name, 0) + n


class Tracer:
    """A run- (or capture-) scoped span recorder.

    Span ids are ``<prefix>s<n>`` with ``n`` from a run-local counter;
    the stack of open spans gives automatic parenting.

    Args:
        id_prefix: Namespace prepended to every span id (worker captures
            use it to keep merged ids globally unique).
        t0: Monotonic origin; defaults to "now".
    """

    def __init__(self, id_prefix: str = "", t0: Optional[float] = None):
        self.t0 = time.perf_counter() if t0 is None else t0
        self.id_prefix = id_prefix
        self.records: List[SpanRecord] = []
        self.metrics = MetricsRegistry()
        self._ids = itertools.count(1)
        self._stack: List[ActiveSpan] = []

    def now(self) -> float:
        """Seconds since the tracer's monotonic origin."""
        return time.perf_counter() - self.t0

    def current_span(self) -> Optional[ActiveSpan]:
        """The innermost open span, or ``None``."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(
        self, name: str, _parent: Optional[str] = None, **attrs: Any
    ) -> Iterator[ActiveSpan]:
        """Open a child span of the current one (or of ``_parent``)."""
        stack = self._stack
        if _parent is None and stack:
            _parent = stack[-1].span_id
        active = ActiveSpan(
            span_id=f"{self.id_prefix}s{next(self._ids)}",
            parent_id=_parent,
            name=name,
            t_start=self.now(),
            attrs=dict(attrs),
        )
        stack.append(active)
        try:
            yield active
        finally:
            stack.pop()
            self.records.append(
                SpanRecord(
                    span_id=active.span_id,
                    parent_id=active.parent_id,
                    name=name,
                    t_start=active.t_start,
                    t_end=self.now(),
                    attrs=dict(active.attrs),
                    counters=dict(active.counters),
                )
            )


# --------------------------------------------------------------- ambient state
#
# The capture stack: executor tasks (and only they) push a capture tracer
# here, so spans recorded inside a task attach to the task's capture
# instead of the process-wide run tracer.

_CAPTURES: List[Tracer] = []


def current_tracer() -> Tracer:
    """The tracer spans attach to right now: capture first, else the run's."""
    if _CAPTURES:
        return _CAPTURES[-1]
    from repro.obs.runctx import current_run

    return current_run().tracer


@contextmanager
def span(name: str, **attrs: Any) -> Iterator[Optional[ActiveSpan]]:
    """Open a span on the ambient tracer; yields ``None`` when tracing is off."""
    if not trace_enabled():
        yield None
        return
    with current_tracer().span(name, **attrs) as active:
        yield active


def inc(name: str, n: float = 1, **labels: Any) -> None:
    """Increment a run counter *and* the innermost open span's tally.

    This is the one-call form injection sites use: the increment lands in
    the ambient metrics registry (labelled) and on the current span
    (unlabelled), so both the aggregate view and the trace tree show it.
    No-op when tracing is off.
    """
    if not trace_enabled():
        return
    tracer = current_tracer()
    tracer.metrics.inc(name, n, **labels)
    active = tracer.current_span()
    if active is not None:
        active.count(name, n)


def observe(name: str, value: float, **labels: Any) -> None:
    """Fold one histogram observation into the ambient registry (no-op off)."""
    if not trace_enabled():
        return
    current_tracer().metrics.observe(name, value, **labels)


def set_gauge(name: str, value: float, **labels: Any) -> None:
    """Set a gauge on the ambient registry (no-op when tracing is off)."""
    if not trace_enabled():
        return
    current_tracer().metrics.set_gauge(name, value, **labels)


# ------------------------------------------------------- worker propagation


@dataclass(frozen=True)
class SpanContext:
    """The picklable linkage a dispatching span hands to a worker task.

    Attributes:
        parent_id: The dispatching span's id — worker task spans parent
            to it after the merge.
        prefix: Id namespace for this task's spans (unique per task), so
            merged worker span ids never collide.
    """

    parent_id: Optional[str]
    prefix: str


@dataclass
class TaskCapture:
    """Everything one worker task recorded, ready to travel by pickle.

    Attributes:
        records: The task's finished spans, with times relative to the
            capture's own monotonic origin (the parent rebases them).
        duration: The capture's total wall time (for rebasing).
        metrics: The task-local metrics registry.
    """

    records: List[SpanRecord]
    duration: float
    metrics: MetricsRegistry


class task_capture:
    """Context manager recording one worker task's spans and metrics.

    Opens a root span ``task:<label>`` parented (across the process
    boundary) to ``ctx.parent_id``, and installs a capture tracer as the
    ambient tracer so everything the task records lands in the
    capture.  After exit, :attr:`result` holds the :class:`TaskCapture`
    (or ``None`` when ``ctx`` is ``None`` or tracing is off).
    """

    def __init__(self, ctx: Optional[SpanContext], label: str, attempt: int = 1):
        self._ctx = ctx
        self._label = label
        self._attempt = attempt
        self._tracer: Optional[Tracer] = None
        self.result: Optional[TaskCapture] = None

    def __enter__(self) -> Optional[ActiveSpan]:
        if self._ctx is None or not trace_enabled():
            return None
        self._tracer = Tracer(id_prefix=f"{self._ctx.prefix}.a{self._attempt}.")
        _CAPTURES.append(self._tracer)
        self._span_cm = self._tracer.span(
            f"task:{self._label}",
            _parent=self._ctx.parent_id,
            label=self._label,
            attempt=self._attempt,
        )
        return self._span_cm.__enter__()

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._tracer is None:
            return False
        root = self._tracer.current_span()
        if root is not None:
            root.attrs["ok"] = exc_type is None
        self._span_cm.__exit__(None, None, None)
        _CAPTURES.pop()
        self.result = TaskCapture(
            records=self._tracer.records,
            duration=self._tracer.now(),
            metrics=self._tracer.metrics,
        )
        return False  # propagate any exception


def merge_capture(capture: Optional[TaskCapture], collected_abs: float) -> None:
    """Fold a worker task's capture into the ambient trace.

    Span times are rebased onto the ambient tracer's clock: the capture
    ran somewhere in ``[collected_abs - duration, collected_abs]`` of the
    local monotonic clock (collection happens promptly after completion),
    so that window anchors the rebase.  Metrics merge into the ambient
    registry.  Safe to call with ``None`` (no capture travelled).

    Args:
        capture: The worker task's capture, or ``None``.
        collected_abs: ``time.perf_counter()`` taken when the task's
            result was collected in this process.
    """
    if capture is None or not trace_enabled():
        return
    tracer = current_tracer()
    offset = max(0.0, (collected_abs - tracer.t0) - capture.duration)
    for record in capture.records:
        tracer.records.append(
            replace(
                record,
                t_start=record.t_start + offset,
                t_end=record.t_end + offset,
            )
        )
    tracer.metrics.merge(capture.metrics)
