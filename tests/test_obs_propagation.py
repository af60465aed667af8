"""Cross-process span propagation and ``REPRO_TRACE=off``.

Per-task spans recorded by a batch's tasks — in-process or in a pool's
workers — come back and nest under the dispatching ``exec/map`` span,
with globally unique ids and merged metrics; ``REPRO_TRACE=off`` records
nothing.  That a study prints the same bytes traced or not is a cell of
the equivalence contract (``tests/test_contract.py``).
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.exec.executor import fan_out
from tests.execpaths import PATH_IDS, PATHS, forced


def traced_square(x: int) -> int:
    """Module-level task (picklable) that records a span and a counter."""
    with obs.span("work", item=x):
        obs.inc("units", 1, stage="test")
    return x * x


@pytest.fixture(autouse=True)
def fresh_run():
    run = obs.new_run("prop-run")
    yield run
    obs.set_current_run(None)


@pytest.fixture(params=PATHS, ids=PATH_IDS)
def path(request):
    """Every round of every batch in the test takes this path."""
    with forced(request.param):
        yield request.param


def test_results_unchanged_by_tracing(path):
    assert fan_out(traced_square, [1, 2, 3]) == [1, 4, 9]


def test_worker_spans_nest_under_map_span(path, fresh_run):
    fan_out(traced_square, [1, 2, 3])
    records = fresh_run.tracer.records
    map_span = next(r for r in records if r.name == "exec/map")
    assert map_span.attrs["workers"] == (2 if path == "pooled" else 0)
    assert map_span.attrs["tasks"] == 3

    task_spans = [r for r in records if r.name.startswith("task:")]
    assert len(task_spans) == 3
    for task in task_spans:
        assert task.parent_id == map_span.span_id
        assert task.span_id.startswith(f"{map_span.span_id}.t")
        # Task spans fall inside the map span's window (rebased times).
        assert task.t_start >= map_span.t_start - 1e-6
        assert task.t_end <= map_span.t_end + 1e-6

    work_spans = [r for r in records if r.name == "work"]
    assert len(work_spans) == 3
    task_ids = {t.span_id for t in task_spans}
    for work in work_spans:
        assert work.parent_id in task_ids


def test_span_ids_are_globally_unique(path, fresh_run):
    fan_out(traced_square, [1, 2, 3, 4])
    ids = [r.span_id for r in fresh_run.tracer.records]
    assert len(ids) == len(set(ids))


def test_worker_metrics_merge_back(path, fresh_run):
    fan_out(traced_square, [1, 2, 3])
    assert fresh_run.metrics.counter_total("units") == 3


def test_off_records_nothing(path, fresh_run, monkeypatch):
    monkeypatch.setenv(obs.ENV_TRACE, "off")
    assert fan_out(traced_square, [1, 2, 3]) == [1, 4, 9]
    assert fresh_run.tracer.records == []
    assert fresh_run.metrics.snapshot()["counters"] == {}


def test_nested_maps_nest_spans(fresh_run):
    def nested(x):
        return fan_out(traced_square, [x, x + 1])

    # In-process: the closure does not pickle.
    with forced("in-process"):
        fan_out(nested, [1, 3])
    names = [r.name for r in fresh_run.tracer.records]
    assert names.count("exec/map") == 3  # one outer + two inner
    assert names.count("work") == 4
