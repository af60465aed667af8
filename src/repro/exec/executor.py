"""Deterministic parallel execution over independent units of work.

The study is full of embarrassingly-parallel loops — five vantage points'
weeks, what-if variants, sweep grid points, per-vantage RTT campaigns —
that the seed-derivation discipline (:func:`repro.sim.seeding.derive_seed`)
already makes order-independent: every unit owns its RNG, so running units
concurrently cannot perturb their draws.  This module supplies the missing
mechanical piece: a :class:`ParallelExecutor` that fans such units out over
a backend (in-process serial, threads, or processes) while keeping results
in input order, containing worker faults, and timing every task.

Determinism contract: for a task function that depends only on its item
(no ambient global state), all three backends return identical values in
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
import pickle
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro import obs

#: Recognised backend names, in documentation order.
BACKENDS = ("serial", "thread", "process")

#: Environment variable naming the backend (``serial``/``thread``/``process``).
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


@dataclass(frozen=True)
class TaskTiming:
    """Wall-clock timing of one executed task.

    Attributes:
        label: Task label (for straggler reports).
        seconds: Wall time spent inside the task function.
        ok: Whether the task returned (``False`` = raised).
        dispatch_bytes: Pickled size of the task sent to the worker
            (process backend only; 0 when nothing was serialized).
        result_bytes: Pickled size of the outcome that came back
            (process backend only; 0 when nothing was serialized).
    """

    label: str
    seconds: float
    ok: bool
    dispatch_bytes: int = 0
    result_bytes: int = 0


@dataclass(frozen=True)
class MapStats:
    """Timing summary of one :meth:`ParallelExecutor.map` call.

    Attributes:
        backend: Backend that ran the batch.
        wall_s: Wall time of the whole batch, submit to last result.
        timings: Per-task timings, in input order (final attempt each).
        retries: Total extra attempts scheduled by the retry policy.
    """

    backend: str
    wall_s: float
    timings: List[TaskTiming] = field(default_factory=list)
    retries: int = 0

    @property
    def task_seconds(self) -> float:
        """Total compute time across tasks (serial-equivalent cost)."""
        return sum(t.seconds for t in self.timings)

    @property
    def dispatch_bytes(self) -> int:
        """Total pickled bytes sent to workers (the dispatch half)."""
        return sum(t.dispatch_bytes for t in self.timings)

    @property
    def result_bytes(self) -> int:
        """Total pickled bytes returned by workers (the result half)."""
        return sum(t.result_bytes for t in self.timings)

    @property
    def speedup(self) -> float:
        """Serial-equivalent time over wall time (1.0 for serial runs)."""
        return self.task_seconds / self.wall_s if self.wall_s > 0 else 1.0

    def straggler(self) -> Optional[TaskTiming]:
        """The slowest task, or ``None`` for an empty batch."""
        return max(self.timings, key=lambda t: t.seconds, default=None)


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
        seconds: Wall time spent inside the task function.
        payload: The task's value, or a contained :class:`ExecutionError`.
        capture: The task's span/metrics capture
            (:class:`~repro.obs.TaskCapture`), when tracing is on and a
            span context was propagated; ``None`` otherwise.
        collected_abs: ``time.perf_counter()`` in the *dispatching*
            process at the moment the outcome was collected — the anchor
            for rebasing the capture's relative span times onto the
            dispatcher's clock.  Filled in by the dispatcher, never the
            worker (their monotonic clocks are unrelated).
        dispatch_bytes: Pickled task size (filled by the dispatcher on
            the process backend; 0 for in-process backends).
        result_bytes: Pickled outcome size (likewise).
    """

    seconds: float
    payload: Any
    capture: Optional[obs.TaskCapture] = None
    collected_abs: float = 0.0
    dispatch_bytes: int = 0
    result_bytes: int = 0


def _timed_call(
    fn: Callable[[Any], Any],
    item: Any,
    label: str,
    attempt: int = 1,
    span_ctx: Optional[obs.SpanContext] = None,
):
    """Run one task attempt, capturing wall time and any failure.

    Module-level so the process backend can pickle it.  Returns a
    :class:`TaskOutcome` whose payload is either the task's value or an
    :class:`ExecutionError` built from the in-worker traceback.  When a
    span context rides along, the attempt runs inside a ``task:<label>``
    capture span, so everything the task records (nested spans, cache
    counters) travels back for merging under the dispatching map span.
    """
    capture = obs.task_capture(span_ctx, label, attempt)
    start = time.perf_counter()
    try:
        with capture:
            _inject_task_fault(label, attempt)
            value = fn(item)
    except Exception as exc:  # contain, never kill the pool
        return TaskOutcome(
            time.perf_counter() - start,
            ExecutionError.wrap(label, exc, traceback.format_exc()),
            capture.result,
        )
    return TaskOutcome(time.perf_counter() - start, value, capture.result)


def _timed_call_packed(blob: bytes) -> bytes:
    """Process-backend transport shim: bytes in, bytes out.

    The dispatcher pickles ``(fn, item, label, attempt, span_ctx)`` once
    and measures it; this shim runs the attempt and pickles the outcome
    back, so both halves of the pickle tax are observable as exact byte
    counts (:class:`TaskTiming`).  An unpicklable *result* is contained
    here — replaced by an :class:`ExecutionError` outcome — instead of
    poisoning the pool's result pipe.
    """
    fn, item, label, attempt, span_ctx = pickle.loads(blob)
    outcome = _timed_call(fn, item, label, attempt, span_ctx)
    try:
        return pickle.dumps(outcome)
    except Exception as exc:
        contained = TaskOutcome(
            outcome.seconds,
            ExecutionError(label, type(exc).__name__, str(exc), traceback.format_exc()),
        )
        return pickle.dumps(contained)


class ParallelExecutor:
    """Ordered, fault-contained fan-out over a pluggable backend.

    Args:
        backend: ``"serial"`` (default: run in the calling thread),
            ``"thread"`` or ``"process"``.
        max_workers: Worker bound for the pool backends; defaults to
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
        self.stats: List[MapStats] = []

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
        retry: Optional["object"] = None,
    ) -> List[Any]:
        """Apply ``fn`` to every item, returning results in input order.

        All tasks run to completion regardless of individual failures
        (fault containment): a failed task never cancels its siblings.
        Failures a retry policy classes as transient are re-attempted in
        follow-up rounds (deterministic backoff between rounds) before
        they count as failures at all.

        Args:
            fn: Task function (module-level for the process backend).
            items: Units of work.
            labels: Per-task labels for timings and errors; defaults to
                ``task[i]``.
            on_error: ``"raise"`` re-raises the first failure as an
                :class:`ExecutionError` after the whole batch finishes;
                ``"return"`` leaves each failure's :class:`ExecutionError`
                in its result slot instead.
            retry: A :class:`~repro.faults.retry.RetryPolicy` for
                transient failures; ``None`` applies the default policy
                when a fault plan is active, else no retries.

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
        if retry is None:
            from repro.faults.plan import active_plan
            from repro.faults.retry import default_retry_policy

            retry = default_retry_policy() if active_plan() is not None else None

        start = time.perf_counter()
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
            retries = 0
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
                if retry is None or attempt >= retry.max_attempts:
                    break
                if (
                    retry.max_deadline_s is not None
                    and time.perf_counter() - start >= retry.max_deadline_s
                ):
                    break
                retryable = [
                    i for i in pending_idx
                    if isinstance(outcomes[i].payload, ExecutionError)
                    and retry.retryable(outcomes[i].payload.cause_type)
                ]
                if not retryable:
                    break
                retries += len(retryable)
                from repro.faults import report as degradation

                degradation.record("exec/map", retried=len(retryable))
                obs.inc("retries", len(retryable), stage="exec/map")
                delay = retry.delay_s(attempt, labels[retryable[0]])
                if delay > 0:
                    time.sleep(delay)
                pending_idx = retryable
                attempt += 1
            if map_span is not None and retries:
                map_span.attrs["retries"] = retries
        wall_s = time.perf_counter() - start

        timings: List[TaskTiming] = []
        results: List[Any] = []
        first_error: Optional[ExecutionError] = None
        for label, outcome in zip(labels, outcomes):
            payload = outcome.payload
            failed = isinstance(payload, ExecutionError)
            timings.append(
                TaskTiming(
                    label=label,
                    seconds=outcome.seconds,
                    ok=not failed,
                    dispatch_bytes=outcome.dispatch_bytes,
                    result_bytes=outcome.result_bytes,
                )
            )
            results.append(payload)
            if failed and first_error is None:
                first_error = payload
        self.stats.append(
            MapStats(backend=self.backend, wall_s=wall_s, timings=timings, retries=retries)
        )
        if first_error is not None and on_error == "raise":
            raise first_error
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
                outcome = _timed_call(fn, item, label, attempt, ctx)
                outcome.collected_abs = time.perf_counter()
                outcomes.append(outcome)
            return outcomes
        return self._pooled(fn, items, labels, attempt, contexts)

    def _pooled(
        self, fn: Callable[[Any], Any], items: List[Any], labels: List[str],
        attempt: int, contexts: List[Optional[obs.SpanContext]],
    ) -> List[TaskOutcome]:
        """Fan a batch out over a worker pool, preserving input order."""
        workers = self.max_workers or os.cpu_count() or 1
        workers = max(1, min(workers, len(items)))
        # The pools load the threading and multiprocessing machinery, which
        # a serial run never needs.
        from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

        pool_cls = ThreadPoolExecutor if self.backend == "thread" else ProcessPoolExecutor
        packed = self.backend == "process"
        outcomes: List[Optional[TaskOutcome]] = [None] * len(items)
        dispatch_bytes: Dict[int, int] = {}
        with pool_cls(max_workers=workers) as pool:
            futures: Dict[Future, int] = {}
            for i, (item, label, ctx) in enumerate(zip(items, labels, contexts)):
                if packed:
                    # Pickle the task here, not inside the pool's feeder
                    # thread, so the dispatch size is an exact number and
                    # an unpicklable item is contained per-task.
                    try:
                        blob = pickle.dumps((fn, item, label, attempt, ctx))
                    except Exception as exc:
                        outcomes[i] = TaskOutcome(
                            0.0,
                            ExecutionError(
                                label, type(exc).__name__, str(exc),
                                traceback.format_exc(),
                            ),
                            collected_abs=time.perf_counter(),
                        )
                        continue
                    dispatch_bytes[i] = len(blob)
                    futures[pool.submit(_timed_call_packed, blob)] = i
                else:
                    futures[pool.submit(_timed_call, fn, item, label, attempt, ctx)] = i
            pending = set(futures)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    i = futures[future]
                    try:
                        raw = future.result()
                        if packed:
                            outcome = pickle.loads(raw)
                            outcome.dispatch_bytes = dispatch_bytes.get(i, 0)
                            outcome.result_bytes = len(raw)
                            outcomes[i] = outcome
                        else:
                            outcomes[i] = raw
                    except Exception as exc:
                        # Transport-level failure (e.g. a crashed worker
                        # breaking the pool): contain it like an in-task
                        # error.
                        outcomes[i] = TaskOutcome(
                            0.0,
                            ExecutionError(
                                labels[i],
                                type(exc).__name__,
                                str(exc),
                                traceback.format_exc(),
                            ),
                            dispatch_bytes=dispatch_bytes.get(i, 0),
                        )
                    outcomes[i].collected_abs = time.perf_counter()
        return outcomes

    # ------------------------------------------------------------- timings

    @property
    def timings(self) -> List[TaskTiming]:
        """Every task timing recorded so far, across all ``map`` calls."""
        return [t for stats in self.stats for t in stats.timings]


def default_executor(executor: Optional[ParallelExecutor]) -> ParallelExecutor:
    """The executor to use: the given one, else ``from_env()``.

    Library entry points take ``executor=None`` and resolve it here, so a
    plain call obeys ``REPRO_EXECUTOR`` while tests can inject explicitly.
    """
    return executor if executor is not None else ParallelExecutor.from_env()
