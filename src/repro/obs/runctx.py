"""The run context: one object scoping every per-run accumulator.

The tracer (whose spans are the one record of task and stage time) and
the metrics registry (which also holds the run's degradation counters,
see :mod:`repro.faults.report`) live on the :class:`RunContext`, and
starting a new run (:func:`new_run`) gives every accumulator a fresh
start at once, so sequential studies in one process never leak into
each other's reports.

The context is process-global.  The executor's workers are processes,
not threads: each pooled task runs in a fresh context of its own, its
spans and traced metrics travel back inside its task capture, and the
run metrics it added (degradation counters, also with tracing off)
travel back with its outcome and merge into the dispatcher's run.

Run ids are ``run-<pid>-<n>`` from a process-local counter — unique
enough to name trace files, free of ``uuid``/wall-clock entropy, and
never part of any artifact-cache key.
"""

from __future__ import annotations

import itertools
import os
from typing import Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer

_seq = itertools.count(1)


class RunContext:
    """Everything scoped to one run: tracer and metrics.

    Attributes:
        run_id: Stable name for this run's artifacts (trace files).
        tracer: The run's span recorder; its monotonic origin is the
            run's t=0.
    """

    def __init__(self, run_id: Optional[str] = None):
        self.run_id = run_id or f"run-{os.getpid()}-{next(_seq)}"
        self.tracer = Tracer()

    @property
    def metrics(self) -> MetricsRegistry:
        """The run's metrics registry (lives on the tracer so worker
        captures and the ambient-tracer resolution share one home)."""
        return self.tracer.metrics


_current: Optional[RunContext] = None


def current_run() -> RunContext:
    """The process's active run context (created lazily on first use)."""
    global _current
    if _current is None:
        _current = RunContext()
    return _current


def new_run(run_id: Optional[str] = None) -> RunContext:
    """Start a fresh run context and make it current.

    The CLI calls this once per invocation, which is what keeps spans and
    metrics (degradation rows included) from one study out of the next
    one's reports when several studies run in a single process.
    """
    global _current
    _current = RunContext(run_id)
    return _current


def set_current_run(run: Optional[RunContext]) -> None:
    """Install a specific context (tests); ``None`` resets to lazy."""
    global _current
    _current = run
