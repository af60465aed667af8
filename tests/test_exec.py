"""Unit tests for the parallel execution layer (:mod:`repro.exec`)."""

import pickle

import pytest

from repro.exec.executor import (
    BACKENDS,
    ENV_BACKEND,
    ENV_WORKERS,
    ExecutionError,
    ParallelExecutor,
    default_executor,
)
from repro.reporting.timing import timing_summary, write_timing_json


def _square(x):
    return x * x


def _explode_on_three(x):
    if x == 3:
        raise ValueError(f"poisoned item {x}")
    return x * x


def _return_unpicklable(_x):
    return lambda: None  # noqa: E731 - deliberately unpicklable


def _nested_failing_map(_x):
    # A task that fans out its own executor and hits a failure there.
    return ParallelExecutor("serial").map(_explode_on_three, [3])


class TestConstruction:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            ParallelExecutor("fork-bomb")

    def test_nonpositive_workers_rejected(self):
        with pytest.raises(ValueError, match="max_workers"):
            ParallelExecutor("thread", max_workers=0)

    def test_from_env_defaults_to_serial(self, monkeypatch):
        monkeypatch.delenv(ENV_BACKEND, raising=False)
        monkeypatch.delenv(ENV_WORKERS, raising=False)
        executor = ParallelExecutor.from_env()
        assert executor.backend == "serial"
        assert executor.max_workers is None

    def test_from_env_reads_backend_and_workers(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "Thread")
        monkeypatch.setenv(ENV_WORKERS, "3")
        executor = ParallelExecutor.from_env()
        assert executor.backend == "thread"
        assert executor.max_workers == 3

    def test_from_env_rejects_garbage_backend(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "hyperdrive")
        with pytest.raises(ValueError, match="unknown backend"):
            ParallelExecutor.from_env()

    def test_default_executor_prefers_explicit(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "thread")
        explicit = ParallelExecutor("serial")
        assert default_executor(explicit) is explicit
        assert default_executor(None).backend == "thread"


class TestMapping:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_results_in_input_order(self, backend):
        executor = ParallelExecutor(backend, max_workers=2)
        assert executor.map(_square, [3, 1, 4, 1, 5]) == [9, 1, 16, 1, 25]

    def test_empty_batch(self):
        executor = ParallelExecutor("thread")
        assert executor.map(_square, []) == []
        assert executor.stats[0].timings == []

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
    def test_raise_mode_surfaces_first_failure_after_batch(self, backend):
        executor = ParallelExecutor(backend, max_workers=2)
        with pytest.raises(ExecutionError, match="poisoned item 3"):
            executor.map(_explode_on_three, [1, 3, 2, 4])
        # The batch still ran to completion before raising.
        assert len(executor.timings) == 4
        assert sum(1 for t in executor.timings if not t.ok) == 1

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


class TestTimings:
    def test_timings_accumulate_across_batches(self):
        executor = ParallelExecutor("serial")
        executor.map(_square, [1, 2], labels=["a", "b"])
        executor.map(_square, [3], labels=["c"])
        assert [t.label for t in executor.timings] == ["a", "b", "c"]
        assert all(t.ok and t.seconds >= 0 for t in executor.timings)

    def test_map_stats_summary(self):
        executor = ParallelExecutor("serial")
        executor.map(_square, [1, 2, 3])
        stats = executor.stats[0]
        assert stats.backend == "serial"
        assert stats.wall_s > 0
        assert stats.task_seconds == pytest.approx(
            sum(t.seconds for t in stats.timings)
        )
        assert stats.straggler() in stats.timings

    def test_timing_summary_json(self, tmp_path):
        executor = ParallelExecutor("serial")
        executor.map(_square, [1, 2], labels=["x", "y"])
        summary = write_timing_json(executor.stats, tmp_path / "timing.json")
        assert summary["backend"] == "serial"
        assert summary["tasks"] == 2
        assert summary["straggler"]["label"] in ("x", "y")
        assert (tmp_path / "timing.json").exists()
        assert timing_summary([])["tasks"] == 0


def _double(x):
    return x * 2


class TestPayloadBytes:
    def test_in_process_backends_serialize_nothing(self):
        for backend in ("serial", "thread"):
            executor = ParallelExecutor(backend, max_workers=2)
            assert executor.map(_double, [1, 2, 3]) == [2, 4, 6]
            stats = executor.stats[-1]
            assert stats.dispatch_bytes == 0
            assert stats.result_bytes == 0

    def test_process_backend_measures_both_directions(self):
        executor = ParallelExecutor("process", max_workers=2)
        assert executor.map(_double, ["x", "y", "z"]) == ["xx", "yy", "zz"]
        stats = executor.stats[-1]
        assert stats.dispatch_bytes > 0
        assert stats.result_bytes > 0
        for timing in stats.timings:
            assert timing.dispatch_bytes > 0
            assert timing.result_bytes > 0

    def test_timing_summary_carries_payload_totals(self):
        executor = ParallelExecutor("process", max_workers=2)
        executor.map(_double, [1, 2, 3])
        summary = timing_summary(executor.stats)
        assert summary["dispatch_bytes"] == sum(
            r["dispatch_bytes"] for r in summary["timings"]
        ) > 0
        assert summary["result_bytes"] == sum(
            r["result_bytes"] for r in summary["timings"]
        ) > 0
