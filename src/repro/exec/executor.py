"""Deterministic parallel execution over independent units of work.

The study is full of embarrassingly-parallel loops — five vantage points'
weeks, what-if variants, sweep grid points, per-vantage RTT campaigns —
that the seed-derivation discipline (:func:`repro.sim.seeding.derive_seed`)
already makes order-independent: every unit owns its RNG, so running units
concurrently cannot perturb their draws.  This module supplies the missing
mechanical piece: a :class:`ParallelExecutor` that fans such units out over
a backend (in-process serial, or a process pool) while keeping results in
input order and containing worker faults.  There is no thread pool: the
study is CPU-bound Python, where threads only add GIL contention.

Task time is recorded once, by the tracer: every ``map`` is an
``exec/map`` span, and every task a ``task:<label>`` span under it, also
when it ran in a worker process (:mod:`repro.obs.tracer`).

Determinism contract: for a task function that depends only on its item
(no ambient global state), both backends return identical values in
identical order.  ``tests/test_exec_determinism.py`` holds the simulator to
that contract byte-for-byte.

Backend selection::

    executor = ParallelExecutor("process", max_workers=4)   # explicit
    executor = ParallelExecutor.from_env()                  # REPRO_EXECUTOR

Process-backend caveat: the task function must be a module-level callable
and its items/results picklable — the standard :mod:`concurrent.futures`
restriction.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from repro import obs

#: Recognised backend names, in documentation order.
BACKENDS = ("serial", "process")

#: Environment variable naming the backend (``serial``/``process``).
ENV_BACKEND = "REPRO_EXECUTOR"

#: Environment variable bounding the worker count (positive integer).
ENV_WORKERS = "REPRO_EXECUTOR_WORKERS"


class ExecutionError(RuntimeError):
    """A unit of work failed inside a worker.

    The pool is never killed by one bad task: the failure is captured where
    it happened and re-surfaced here with the *original* traceback text, so
    a crash inside a process worker reads exactly like a local one.

    With nested pools (a process task that fans out its own executor) the
    inner failure is already an ``ExecutionError``; re-wrapping keeps the
    *root* ``cause_type`` and worker traceback and prefixes the label path,
    so the diagnosis survives any number of pool hops and pickle
    round-trips.

    Attributes:
        label: The failed task's label (``outer -> inner`` when nested).
        cause_type: Root exception class name raised by the task.
        cause_message: Stringified root exception.
        worker_traceback: Full traceback text from the innermost worker.
        attempts: How many attempts were made before giving up.
    """

    def __init__(
        self,
        label: str,
        cause_type: str,
        cause_message: str,
        worker_traceback: str,
        attempts: int = 1,
    ):
        self.label = label
        self.cause_type = cause_type
        self.cause_message = cause_message
        self.worker_traceback = worker_traceback
        self.attempts = attempts
        super().__init__(
            f"task {label!r} failed with {cause_type}: {cause_message}\n"
            f"--- worker traceback ---\n{worker_traceback}"
        )

    def __reduce__(self):
        # All five fields must travel: reconstructing from the base
        # RuntimeError args (or from the first four fields only) silently
        # drops the attempt count on re-pickle round-trips across nested
        # pools.
        return (
            ExecutionError,
            (
                self.label,
                self.cause_type,
                self.cause_message,
                self.worker_traceback,
                self.attempts,
            ),
        )

    @classmethod
    def wrap(cls, label: str, exc: BaseException, tb_text: str) -> "ExecutionError":
        """Contain a task failure, preserving nested errors' root cause."""
        if isinstance(exc, ExecutionError):
            return cls(
                f"{label} -> {exc.label}",
                exc.cause_type,
                exc.cause_message,
                exc.worker_traceback,
                attempts=exc.attempts,
            )
        return cls(label, type(exc).__name__, str(exc), tb_text)


def _inject_task_fault(label: str, attempt: int) -> None:
    """Raise an injected fault for this task attempt, if the plan says so.

    Resolved from the ambient fault plan (``REPRO_FAULTS`` travels to
    process workers through the environment), with decisions keyed on
    ``(label, attempt)`` — deterministic regardless of backend or
    scheduling.
    """
    from repro.faults.plan import active_plan
    from repro.faults.retry import TransientFault, WorkerCrash

    plan = active_plan()
    if plan is None:
        return
    if plan.attempt_fails(plan.task_crash, attempt, "exec/crash", label):
        raise WorkerCrash(f"injected worker crash in {label!r} (attempt {attempt})")
    if plan.attempt_fails(plan.task_transient, attempt, "exec/transient", label):
        raise TransientFault(
            f"injected transient fault in {label!r} (attempt {attempt})"
        )


@dataclass
class TaskOutcome:
    """One task attempt's result as it travels back from a worker.

    Attributes:
        payload: The task's value, or a contained :class:`ExecutionError`.
        capture: The task's span/metrics capture
            (:class:`~repro.obs.TaskCapture`), when tracing is on and a
            span context was propagated; ``None`` otherwise.
        collected_abs: ``time.perf_counter()`` in the *dispatching*
            process at the moment the outcome was collected — the anchor
            for rebasing the capture's relative span times onto the
            dispatcher's clock.  Filled in by the dispatcher, never the
            worker (their monotonic clocks are unrelated).
    """

    payload: Any
    capture: Optional[obs.TaskCapture] = None
    collected_abs: float = 0.0


def _run_task(
    fn: Callable[[Any], Any],
    item: Any,
    label: str,
    attempt: int = 1,
    span_ctx: Optional[obs.SpanContext] = None,
) -> TaskOutcome:
    """Run one task attempt, containing any failure.

    Module-level so the process backend can pickle it.  Returns a
    :class:`TaskOutcome` whose payload is either the task's value or an
    :class:`ExecutionError` built from the in-worker traceback.  When a
    span context rides along, the attempt runs inside a ``task:<label>``
    capture span, so everything the task records (nested spans, cache
    counters) travels back for merging under the dispatching map span.
    """
    capture = obs.task_capture(span_ctx, label, attempt)
    try:
        with capture:
            _inject_task_fault(label, attempt)
            value = fn(item)
    except Exception as exc:  # contain, never kill the pool
        return TaskOutcome(
            ExecutionError.wrap(label, exc, traceback.format_exc()), capture.result
        )
    return TaskOutcome(value, capture.result)


class ParallelExecutor:
    """Ordered, fault-contained fan-out over a pluggable backend.

    Args:
        backend: ``"serial"`` (default: run in the calling process) or
            ``"process"``.
        max_workers: Worker bound for the process pool; defaults to
            ``os.cpu_count()`` capped at the batch size.

    Raises:
        ValueError: For unknown backends or a non-positive worker count.
    """

    def __init__(self, backend: str = "serial", max_workers: Optional[int] = None):
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be positive")
        self.backend = backend
        self.max_workers = max_workers

    @classmethod
    def from_env(cls, default: str = "serial") -> "ParallelExecutor":
        """Build from ``REPRO_EXECUTOR`` / ``REPRO_EXECUTOR_WORKERS``.

        Unset variables fall back to ``default`` workers/backend; invalid
        values raise exactly like the constructor.
        """
        backend = os.environ.get(ENV_BACKEND, default).strip().lower() or default
        workers_text = os.environ.get(ENV_WORKERS, "").strip()
        max_workers = int(workers_text) if workers_text else None
        return cls(backend, max_workers=max_workers)

    # ------------------------------------------------------------- mapping

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        labels: Optional[Sequence[str]] = None,
        on_error: str = "raise",
    ) -> List[Any]:
        """Apply ``fn`` to every item, returning results in input order.

        All tasks run to completion regardless of individual failures
        (fault containment): a failed task never cancels its siblings.
        Under an active fault plan, failures whose type is in
        :data:`~repro.faults.retry.RETRY_ON` are re-attempted in
        follow-up rounds, up to :data:`~repro.faults.retry.MAX_ATTEMPTS`
        attempts per task, before they count as failures at all.

        Args:
            fn: Task function (module-level for the process backend).
            items: Units of work.
            labels: Per-task labels for task spans and errors; defaults to
                ``task[i]``.
            on_error: ``"raise"`` re-raises the first failure as an
                :class:`ExecutionError` after the whole batch finishes;
                ``"return"`` leaves each failure's :class:`ExecutionError`
                in its result slot instead.

        Returns:
            Task results (or contained errors), in input order.

        Raises:
            ExecutionError: A task failed and ``on_error="raise"``.
            ValueError: For a bad ``on_error`` or mismatched label count.
        """
        if on_error not in ("raise", "return"):
            raise ValueError(f"on_error must be 'raise' or 'return', got {on_error!r}")
        items = list(items)
        if labels is None:
            labels = [f"task[{i}]" for i in range(len(items))]
        else:
            labels = [str(label) for label in labels]
            if len(labels) != len(items):
                raise ValueError(f"{len(labels)} labels for {len(items)} items")
        from repro.faults.plan import active_plan
        from repro.faults.retry import MAX_ATTEMPTS, RETRY_ON

        max_attempts = MAX_ATTEMPTS if active_plan() is not None else 1
        outcomes: List[Optional[TaskOutcome]] = [None] * len(items)
        with obs.span("exec/map", backend=self.backend, tasks=len(items)) as map_span:
            contexts: List[Optional[obs.SpanContext]] = [None] * len(items)
            if map_span is not None:
                contexts = [
                    obs.SpanContext(
                        parent_id=map_span.span_id,
                        prefix=f"{map_span.span_id}.t{i}",
                    )
                    for i in range(len(items))
                ]
            pending_idx = list(range(len(items)))
            attempt = 1
            while pending_idx:
                round_outcomes = self._dispatch(
                    fn, [items[i] for i in pending_idx],
                    [labels[i] for i in pending_idx], attempt,
                    [contexts[i] for i in pending_idx],
                )
                for i, outcome in zip(pending_idx, round_outcomes):
                    payload = outcome.payload
                    if isinstance(payload, ExecutionError):
                        payload.attempts = max(payload.attempts, attempt)
                    outcomes[i] = outcome
                    obs.merge_capture(outcome.capture, outcome.collected_abs)
                if attempt >= max_attempts:
                    break
                retryable = [
                    i for i in pending_idx
                    if isinstance(outcomes[i].payload, ExecutionError)
                    and outcomes[i].payload.cause_type in RETRY_ON
                ]
                if not retryable:
                    break
                from repro.faults import report as degradation

                degradation.record("exec/map", retried=len(retryable))
                pending_idx = retryable
                attempt += 1

        results = [outcome.payload for outcome in outcomes]
        if on_error == "raise":
            for payload in results:
                if isinstance(payload, ExecutionError):
                    raise payload
        return results

    def _dispatch(
        self,
        fn: Callable[[Any], Any],
        items: List[Any],
        labels: List[str],
        attempt: int,
        contexts: List[Optional[obs.SpanContext]],
    ) -> List[TaskOutcome]:
        """Run one attempt round over the backend, results in input order."""
        if self.backend == "serial" or len(items) <= 1:
            outcomes = []
            for item, label, ctx in zip(items, labels, contexts):
                outcome = _run_task(fn, item, label, attempt, ctx)
                outcome.collected_abs = time.perf_counter()
                outcomes.append(outcome)
            return outcomes
        return self._pooled(fn, items, labels, attempt, contexts)

    def _pooled(
        self, fn: Callable[[Any], Any], items: List[Any], labels: List[str],
        attempt: int, contexts: List[Optional[obs.SpanContext]],
    ) -> List[TaskOutcome]:
        """Fan a batch out over a process pool, preserving input order.

        The pool fails only the future of a task whose item or result
        does not pickle, and keeps the pool alive; that failure, like a
        crashed worker, is contained as the task's :class:`ExecutionError`.
        """
        workers = self.max_workers or os.cpu_count() or 1
        workers = max(1, min(workers, len(items)))
        # The pool loads the multiprocessing machinery, which a serial run
        # never needs.
        from concurrent.futures import ProcessPoolExecutor, as_completed

        outcomes: List[Optional[TaskOutcome]] = [None] * len(items)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(_run_task, fn, item, label, attempt, ctx): i
                for i, (item, label, ctx) in enumerate(zip(items, labels, contexts))
            }
            for future in as_completed(futures):
                i = futures[future]
                try:
                    outcome = future.result()
                except Exception as exc:
                    outcome = TaskOutcome(ExecutionError(
                        labels[i], type(exc).__name__, str(exc), traceback.format_exc(),
                    ))
                outcome.collected_abs = time.perf_counter()
                outcomes[i] = outcome
        return outcomes


def default_executor(executor: Optional[ParallelExecutor]) -> ParallelExecutor:
    """The executor to use: the given one, else ``from_env()``.

    Library entry points take ``executor=None`` and resolve it here, so a
    plain call obeys ``REPRO_EXECUTOR`` while tests can inject explicitly.
    """
    return executor if executor is not None else ParallelExecutor.from_env()
