"""Unit tests for the parallel execution layer (:mod:`repro.exec`)."""

import pickle
import threading

import pytest

from repro import obs
from repro.exec.executor import (
    BACKENDS,
    ENV_BACKEND,
    ENV_WORKERS,
    ExecutionError,
    ParallelExecutor,
    default_executor,
)


def _square(x):
    return x * x


def _explode_on_three(x):
    if x == 3:
        raise ValueError(f"poisoned item {x}")
    return x * x


def _return_unpicklable(_x):
    return lambda: None  # noqa: E731 - deliberately unpicklable


def _task_spans(run):
    return [r for r in run.tracer.records if r.name.startswith("task:")]


@pytest.fixture
def fresh_run():
    """A run context of the test's own, whose spans it can read."""
    run = obs.new_run("exec-test")
    yield run
    obs.set_current_run(None)


def _nested_failing_map(_x):
    # A task that fans out its own executor and hits a failure there.
    return ParallelExecutor("serial").map(_explode_on_three, [3])


class TestConstruction:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            ParallelExecutor("fork-bomb")

    def test_nonpositive_workers_rejected(self):
        with pytest.raises(ValueError, match="max_workers"):
            ParallelExecutor("process", max_workers=0)

    def test_from_env_defaults_to_serial(self, monkeypatch):
        monkeypatch.delenv(ENV_BACKEND, raising=False)
        monkeypatch.delenv(ENV_WORKERS, raising=False)
        executor = ParallelExecutor.from_env()
        assert executor.backend == "serial"
        assert executor.max_workers is None

    def test_from_env_reads_backend_and_workers(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "Process")
        monkeypatch.setenv(ENV_WORKERS, "3")
        executor = ParallelExecutor.from_env()
        assert executor.backend == "process"
        assert executor.max_workers == 3

    def test_from_env_rejects_garbage_backend(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "hyperdrive")
        with pytest.raises(ValueError, match="unknown backend"):
            ParallelExecutor.from_env()

    def test_default_executor_prefers_explicit(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "process")
        explicit = ParallelExecutor("serial")
        assert default_executor(explicit) is explicit
        assert default_executor(None).backend == "process"

    def test_thread_backend_is_gone(self, monkeypatch):
        assert BACKENDS == ("serial", "process")
        with pytest.raises(ValueError, match="unknown backend"):
            ParallelExecutor("thread")
        monkeypatch.setenv(ENV_BACKEND, "thread")
        with pytest.raises(ValueError, match="unknown backend"):
            ParallelExecutor.from_env()


class TestMapping:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_results_in_input_order(self, backend):
        executor = ParallelExecutor(backend, max_workers=2)
        assert executor.map(_square, [3, 1, 4, 1, 5]) == [9, 1, 16, 1, 25]

    def test_empty_batch(self, fresh_run):
        executor = ParallelExecutor("process")
        assert executor.map(_square, []) == []
        (map_span,) = [r for r in fresh_run.tracer.records if r.name == "exec/map"]
        assert map_span.attrs["tasks"] == 0
        assert _task_spans(fresh_run) == []

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            ParallelExecutor().map(_square, [1, 2], labels=["only-one"])

    def test_bad_on_error_rejected(self):
        with pytest.raises(ValueError, match="on_error"):
            ParallelExecutor().map(_square, [1], on_error="explode")


class TestFaultContainment:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_failure_does_not_lose_siblings(self, backend):
        executor = ParallelExecutor(backend, max_workers=2)
        results = executor.map(
            _explode_on_three, [1, 2, 3, 4], on_error="return"
        )
        assert results[0] == 1 and results[1] == 4 and results[3] == 16
        error = results[2]
        assert isinstance(error, ExecutionError)
        assert error.label == "task[2]"
        assert error.cause_type == "ValueError"
        assert "poisoned item 3" in error.cause_message
        assert "ValueError: poisoned item 3" in error.worker_traceback

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_raise_mode_surfaces_first_failure_after_batch(self, backend, fresh_run):
        executor = ParallelExecutor(backend, max_workers=2)
        with pytest.raises(ExecutionError, match="poisoned item 3"):
            executor.map(_explode_on_three, [1, 3, 2, 4])
        # The batch still ran to completion before raising.
        tasks = _task_spans(fresh_run)
        assert len(tasks) == 4
        assert sum(1 for t in tasks if not t.attrs["ok"]) == 1

    def test_execution_error_survives_pickling(self):
        error = ExecutionError("task[0]", "ValueError", "boom", "trace text")
        clone = pickle.loads(pickle.dumps(error))
        assert clone.label == "task[0]"
        assert clone.worker_traceback == "trace text"

    def test_execution_error_attempts_survive_repickling(self):
        # Regression: __reduce__ must carry all five fields.  Rebuilding
        # from the first four silently reset attempts to 1 the second
        # time the error crossed a process boundary (nested pools).
        error = ExecutionError("task[0]", "ValueError", "boom", "tb",
                               attempts=4)
        once = pickle.loads(pickle.dumps(error))
        twice = pickle.loads(pickle.dumps(once))
        assert once.attempts == 4
        assert twice.attempts == 4
        assert twice.cause_type == "ValueError"
        assert twice.worker_traceback == "tb"

    def test_nested_pool_failure_keeps_root_cause(self):
        # An inner pool's ExecutionError re-contained by an outer pool
        # must surface the *root* cause, not "ExecutionError".
        inner = ExecutionError("inner[2]", "KeyError", "lost",
                               "innermost traceback")
        shipped = pickle.loads(pickle.dumps(inner))  # inner pool boundary
        outer = ExecutionError.wrap("outer[0]", shipped, "outer traceback")
        final = pickle.loads(pickle.dumps(outer))    # outer pool boundary
        assert final.label == "outer[0] -> inner[2]"
        assert final.cause_type == "KeyError"
        assert final.cause_message == "lost"
        assert final.worker_traceback == "innermost traceback"

    def test_live_nested_pools_preserve_diagnosis(self):
        executor = ParallelExecutor("process", max_workers=2)
        results = executor.map(
            _nested_failing_map, ["run"], on_error="return"
        )
        error = results[0]
        assert isinstance(error, ExecutionError)
        assert error.cause_type == "ValueError"
        assert "poisoned item 3" in error.cause_message
        assert "ValueError: poisoned item 3" in error.worker_traceback
        assert " -> " in error.label

    def test_unpicklable_result_contained_not_fatal(self):
        executor = ParallelExecutor("process", max_workers=2)
        results = executor.map(
            _return_unpicklable, ["a", "b"], on_error="return"
        )
        assert all(isinstance(r, ExecutionError) for r in results)

    def test_unpicklable_item_contained_not_fatal(self):
        executor = ParallelExecutor("process", max_workers=2)
        results = executor.map(
            _square, [2, threading.Lock(), 3], on_error="return"
        )
        assert results[0] == 4 and results[2] == 9
        error = results[1]
        assert isinstance(error, ExecutionError)
        assert error.label == "task[1]"
        assert "pickle" in error.cause_message


class TestTaskSpans:
    def test_task_spans_accumulate_across_batches(self, fresh_run):
        executor = ParallelExecutor("serial")
        executor.map(_square, [1, 2], labels=["a", "b"])
        executor.map(_square, [3], labels=["c"])
        tasks = _task_spans(fresh_run)
        assert [t.attrs["label"] for t in tasks] == ["a", "b", "c"]
        assert all(t.attrs["ok"] and t.inclusive_s >= 0 for t in tasks)
        maps = [r for r in fresh_run.tracer.records if r.name == "exec/map"]
        assert [m.attrs["tasks"] for m in maps] == [2, 1]
        assert {t.parent_id for t in tasks} == {m.span_id for m in maps}
