"""Unit tests for the execution layer (:mod:`repro.exec`)."""

import concurrent.futures
import itertools
import multiprocessing
import pickle
import threading

import pytest

from repro import obs
from repro.exec import executor
from repro.exec.executor import ExecutionError, fan_out
from repro.faults import report as degradation
from repro.faults.plan import FaultPlan, clear_current_plan, set_current_plan
from tests.execpaths import PATH_IDS, PATHS, forced


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
    # A task that fans out its own batch and hits a failure there.
    return fan_out(_explode_on_three, [3])


def _nested_pool_size(_x):
    # What a batch fanned out inside this task would be given.
    return executor._pool_size(5)


def _record_degradation(x):
    degradation.record("test/stage", degraded=1, skipped=x)
    return x


def _record_and_nest(x):
    degradation.record("test/stage", degraded=1)
    return fan_out(_record_degradation, [x, x])


@pytest.fixture(params=PATHS, ids=PATH_IDS)
def path(request):
    """Every round of every batch in the test takes this path."""
    with forced(request.param):
        yield request.param


class PoolStarted(Exception):
    """Raised by a stub pool: the round chose the process pool."""


def _no_pool(**kwargs):
    raise PoolStarted(kwargs["max_workers"])


class TestPathRule:
    """A round pools exactly when it has two tasks, two usable CPUs, the
    ``fork`` start method, and is not itself running in a pool worker."""

    @pytest.mark.parametrize(
        "tasks, cpus, method, in_worker",
        list(itertools.product([1, 3], [1, 2, 4], ["fork", "spawn"], [False, True])),
    )
    def test_pools_exactly_when_all_four_hold(self, monkeypatch, tasks, cpus, method,
                                               in_worker):
        monkeypatch.setattr(executor.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(multiprocessing, "get_start_method", lambda *a, **k: method)
        monkeypatch.setattr(executor, "_IN_WORKER", in_worker)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
        items = list(range(tasks))
        if tasks >= 2 and cpus >= 2 and method == "fork" and not in_worker:
            with pytest.raises(PoolStarted) as started:
                fan_out(_square, items)
            assert started.value.args == (min(tasks, cpus),)
        else:
            assert fan_out(_square, items) == [x * x for x in items]

    def test_cpu_count_without_an_affinity_mask(self, monkeypatch):
        monkeypatch.delattr(executor.os, "sched_getaffinity")
        monkeypatch.setattr(executor.os, "cpu_count", lambda: 3)
        assert executor._pool_size(8) == (3 if multiprocessing.get_start_method() == "fork"
                                          else 0)
        monkeypatch.setattr(executor.os, "cpu_count", lambda: None)
        assert executor._pool_size(8) == 0

    def test_a_pool_worker_never_pools(self, monkeypatch):
        # A real pool: the rule sees four CPUs in the workers too, and
        # still runs their own batches in-process.
        monkeypatch.setattr(executor.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        with forced("pooled"):
            assert fan_out(_nested_pool_size, ["a", "b"]) == [0, 0]
        assert executor._pool_size(5) == (4 if multiprocessing.get_start_method() == "fork"
                                          else 0)


class TestRunMetrics:
    """What a pooled task records on the run comes home once."""

    @pytest.fixture
    def inert_plan(self):
        # An installed plan makes degradation.record count; an inert one
        # injects nothing.
        set_current_plan(FaultPlan(seed=3))
        yield
        clear_current_plan()

    def test_degradation_is_counted_once(self, path, inert_plan, fresh_run, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "off")
        # Recorded before the fork: a worker inherits it, and must not
        # send it back.
        degradation.record("test/stage", degraded=5)
        assert fan_out(_record_degradation, [1, 2, 3]) == [1, 2, 3]
        assert degradation.collect().stages == {
            "test/stage": {"degraded": 8, "skipped": 6},
        }

    def test_a_nested_batch_is_counted_once(self, path, inert_plan, fresh_run, monkeypatch):
        # A pooled task's own batch runs in the worker, into the task's run.
        monkeypatch.setenv("REPRO_TRACE", "off")
        assert fan_out(_record_and_nest, [1, 2]) == [[1, 1], [2, 2]]
        assert degradation.collect().stages == {
            "test/stage": {"degraded": 6, "skipped": 6},
        }


class TestMapping:
    def test_results_in_input_order(self, path):
        assert fan_out(_square, [3, 1, 4, 1, 5]) == [9, 1, 16, 1, 25]

    def test_empty_batch(self, fresh_run):
        assert fan_out(_square, []) == []
        (map_span,) = [r for r in fresh_run.tracer.records if r.name == "exec/map"]
        assert map_span.attrs["tasks"] == 0
        assert _task_spans(fresh_run) == []

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            fan_out(_square, [1, 2], labels=["only-one"])

    def test_bad_on_error_rejected(self):
        with pytest.raises(ValueError, match="on_error"):
            fan_out(_square, [1], on_error="explode")


class TestFaultContainment:
    def test_failure_does_not_lose_siblings(self, path):
        results = fan_out(_explode_on_three, [1, 2, 3, 4], on_error="return")
        assert results[0] == 1 and results[1] == 4 and results[3] == 16
        error = results[2]
        assert isinstance(error, ExecutionError)
        assert error.label == "task[2]"
        assert error.cause_type == "ValueError"
        assert "poisoned item 3" in error.cause_message
        assert "ValueError: poisoned item 3" in error.worker_traceback

    def test_raise_mode_surfaces_first_failure_after_batch(self, path, fresh_run):
        with pytest.raises(ExecutionError, match="poisoned item 3"):
            fan_out(_explode_on_three, [1, 3, 2, 4])
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
        # time the error crossed a process boundary.
        error = ExecutionError("task[0]", "ValueError", "boom", "tb",
                               attempts=4)
        once = pickle.loads(pickle.dumps(error))
        twice = pickle.loads(pickle.dumps(once))
        assert once.attempts == 4
        assert twice.attempts == 4
        assert twice.cause_type == "ValueError"
        assert twice.worker_traceback == "tb"

    def test_nested_pool_failure_keeps_root_cause(self):
        # An inner batch's ExecutionError re-contained by an outer one
        # must surface the *root* cause, not "ExecutionError".
        inner = ExecutionError("inner[2]", "KeyError", "lost",
                               "innermost traceback")
        shipped = pickle.loads(pickle.dumps(inner))  # inner boundary
        outer = ExecutionError.wrap("outer[0]", shipped, "outer traceback")
        final = pickle.loads(pickle.dumps(outer))    # outer boundary
        assert final.label == "outer[0] -> inner[2]"
        assert final.cause_type == "KeyError"
        assert final.cause_message == "lost"
        assert final.worker_traceback == "innermost traceback"

    def test_live_nested_pools_preserve_diagnosis(self):
        # A pooled task whose own (in-process) batch fails.
        with forced("pooled"):
            results = fan_out(_nested_failing_map, ["run"], on_error="return")
        error = results[0]
        assert isinstance(error, ExecutionError)
        assert error.cause_type == "ValueError"
        assert "poisoned item 3" in error.cause_message
        assert "ValueError: poisoned item 3" in error.worker_traceback
        assert " -> " in error.label

    def test_unpicklable_result_contained_not_fatal(self):
        with forced("pooled"):
            results = fan_out(_return_unpicklable, ["a", "b"], on_error="return")
        assert all(isinstance(r, ExecutionError) for r in results)

    def test_unpicklable_item_contained_not_fatal(self):
        with forced("pooled"):
            results = fan_out(_square, [2, threading.Lock(), 3], on_error="return")
        assert results[0] == 4 and results[2] == 9
        error = results[1]
        assert isinstance(error, ExecutionError)
        assert error.label == "task[1]"
        assert "pickle" in error.cause_message


class TestTaskSpans:
    def test_task_spans_accumulate_across_batches(self, fresh_run):
        with forced("in-process"):
            fan_out(_square, [1, 2], labels=["a", "b"])
            fan_out(_square, [3], labels=["c"])
        tasks = _task_spans(fresh_run)
        assert [t.attrs["label"] for t in tasks] == ["a", "b", "c"]
        assert all(t.attrs["ok"] and t.inclusive_s >= 0 for t in tasks)
        maps = [r for r in fresh_run.tracer.records if r.name == "exec/map"]
        assert [m.attrs["tasks"] for m in maps] == [2, 1]
        assert {t.parent_id for t in tasks} == {m.span_id for m in maps}
