"""Deterministic fan-out over independent units of work.

The study is full of embarrassingly-parallel loops — five vantage points'
weeks, what-if variants, sweep grid points, per-vantage RTT campaigns —
that the seed-derivation discipline (:func:`repro.sim.seeding.derive_seed`)
already makes order-independent: every unit owns its RNG, so running units
concurrently cannot perturb their draws.  :func:`fan_out` runs such units,
keeping results in input order and containing task faults.

There is one executor and no setting.  Each attempt round looks at what
it can observe and picks its own path (:func:`_pool_size`): a forked
process pool when the round has at least two tasks, the process may use
at least two CPUs, ``fork`` is the start method, and the caller is not
itself a pool worker (so pools never nest); otherwise the tasks run
in-process, one after the other.  There is no thread pool: the study is
CPU-bound Python, where threads only add GIL contention.

A pool is only ever forked, so its workers inherit the dispatcher's
memory: the installed fault plan, patched module attributes and the
tracing switch need no hand-off.  What comes back travels with each
task's outcome: its value or contained error, its spans (when tracing is
on), and the run metrics it added, such as degradation counters (also
with tracing off).

Task time is recorded once, by the tracer: every batch is an
``exec/map`` span, and every task a ``task:<label>`` span under it, also
when it ran in a pool worker (:mod:`repro.obs.tracer`).

Determinism contract: for a task function that depends only on its item
(no ambient global state), both paths return identical values in
identical order.  ``tests/test_exec_determinism.py`` holds the simulator
to that contract byte-for-byte.

The task function must be a module-level callable and its items and
results picklable, the standard :mod:`concurrent.futures` restriction; a
task whose item or result does not pickle fails alone, as a contained
:class:`ExecutionError`.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from repro import obs

#: Whether this process is a pool worker (set by the pool's initializer).
_IN_WORKER = False


class ExecutionError(RuntimeError):
    """A unit of work failed inside a worker.

    The pool is never killed by one bad task: the failure is captured where
    it happened and re-surfaced here with the *original* traceback text, so
    a crash inside a pool worker reads exactly like a local one.

    With nested batches (a task that fans out its own batch) the inner
    failure is already an ``ExecutionError``; re-wrapping keeps the *root*
    ``cause_type`` and worker traceback and prefixes the label path, so the
    diagnosis survives any number of hops and pickle round-trips.

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
        # drops the attempt count when a contained error is re-pickled.
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

    Resolved from the ambient fault plan (a forked worker inherits the
    dispatcher's), with decisions keyed on ``(label, attempt)`` —
    deterministic regardless of path or scheduling.
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
        run_metrics: The run metrics a pool worker's task added (its
            degradation counters, recorded with tracing off too);
            ``None`` in-process, where they land in the run directly.
        collected_abs: ``time.perf_counter()`` in the *dispatching*
            process at the moment the outcome was collected — the anchor
            for rebasing the capture's relative span times onto the
            dispatcher's clock.  Filled in by the dispatcher, never the
            worker (their monotonic clocks are unrelated).
    """

    payload: Any
    capture: Optional[obs.TaskCapture] = None
    run_metrics: Optional[obs.MetricsRegistry] = None
    collected_abs: float = 0.0


def _run_task(
    fn: Callable[[Any], Any],
    item: Any,
    label: str,
    attempt: int = 1,
    span_ctx: Optional[obs.SpanContext] = None,
) -> TaskOutcome:
    """Run one task attempt, containing any failure.

    Returns a :class:`TaskOutcome` whose payload is either the task's
    value or an :class:`ExecutionError` built from the in-worker
    traceback.  When a span context rides along, the attempt runs inside
    a ``task:<label>`` capture span, so everything the task records
    (nested spans, cache counters) travels back for merging under the
    dispatching map span.
    """
    capture = obs.task_capture(span_ctx, label, attempt)
    try:
        with capture:
            _inject_task_fault(label, attempt)
            payload = fn(item)
    except Exception as exc:  # contain, never kill the pool
        payload = ExecutionError.wrap(label, exc, traceback.format_exc())
    return TaskOutcome(payload, capture.result)


def _run_pooled_task(*args: Any) -> TaskOutcome:
    """:func:`_run_task` in a pool worker, in a run of its own.

    A forked worker inherits the dispatcher's run metrics, so the task
    starts a fresh run, and only what it adds travels back.
    """
    run = obs.new_run()
    outcome = _run_task(*args)
    outcome.run_metrics = run.metrics
    return outcome


def _pool_size(tasks: int) -> int:
    """Worker processes for one round of ``tasks`` tasks; 0 runs it in-process.

    A round pools when it has at least two tasks, the process may use at
    least two CPUs (its affinity mask, where the platform has one), the
    start method is ``fork`` and this process is not itself a pool
    worker.  Tests patch this function to force a path.
    """
    if tasks < 2 or _IN_WORKER:
        return 0
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    if cpus < 2:
        return 0
    import multiprocessing

    if multiprocessing.get_start_method() != "fork":
        return 0
    return min(tasks, cpus)


def fan_out(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    labels: Optional[Sequence[str]] = None,
    on_error: str = "raise",
) -> List[Any]:
    """Apply ``fn`` to every item, returning results in input order.

    All tasks run to completion regardless of individual failures
    (fault containment): a failed task never cancels its siblings.
    Under an active fault plan, failures whose type is in
    :data:`~repro.faults.retry.RETRY_ON` are re-attempted in follow-up
    rounds, up to :data:`~repro.faults.retry.MAX_ATTEMPTS` attempts per
    task, before they count as failures at all.  Each round picks its
    own path (:func:`_pool_size`).

    Args:
        fn: Task function (module-level, so a pool can pickle it).
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
    with obs.span("exec/map", tasks=len(items), workers=0) as map_span:
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
            workers = _pool_size(len(pending_idx))
            if map_span is not None:
                map_span.attrs["workers"] = max(map_span.attrs["workers"], workers)
            round_outcomes = _dispatch(
                fn, [items[i] for i in pending_idx],
                [labels[i] for i in pending_idx], attempt,
                [contexts[i] for i in pending_idx], workers,
            )
            for i, outcome in zip(pending_idx, round_outcomes):
                payload = outcome.payload
                if isinstance(payload, ExecutionError):
                    payload.attempts = max(payload.attempts, attempt)
                outcomes[i] = outcome
                obs.merge_capture(outcome.capture, outcome.collected_abs)
                if outcome.run_metrics is not None:
                    obs.current_run().metrics.merge(outcome.run_metrics)
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
    fn: Callable[[Any], Any],
    items: List[Any],
    labels: List[str],
    attempt: int,
    contexts: List[Optional[obs.SpanContext]],
    workers: int,
) -> List[TaskOutcome]:
    """Run one attempt round, results in input order.

    With ``workers`` of 0 the tasks run here, one after the other;
    otherwise they fan out over a forked pool of that many processes.
    The pool fails only the future of a task whose item or result does
    not pickle, and keeps the pool alive; that failure, like a crashed
    worker, is contained as the task's :class:`ExecutionError`.
    """
    if not workers:
        outcomes = []
        for item, label, ctx in zip(items, labels, contexts):
            outcome = _run_task(fn, item, label, attempt, ctx)
            outcome.collected_abs = time.perf_counter()
            outcomes.append(outcome)
        return outcomes
    # The pool loads the multiprocessing machinery, which an in-process
    # round never needs.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, as_completed

    outcomes: List[Optional[TaskOutcome]] = [None] * len(items)
    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_enter_worker,
    ) as pool:
        futures = {
            pool.submit(_run_pooled_task, fn, item, label, attempt, ctx): i
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


def _enter_worker() -> None:
    """Pool initializer: mark this process as a worker, so it never pools."""
    global _IN_WORKER
    _IN_WORKER = True
