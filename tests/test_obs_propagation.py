"""Cross-process span propagation and the REPRO_TRACE=off contract.

Two guarantees are pinned here:

1. Per-task spans recorded inside executor workers — serial or process
   backend — come back and nest under the dispatching
   ``exec/map`` span, with globally unique ids and merged metrics.
2. ``REPRO_TRACE=off`` is a true no-op: the study's dataset digests are
   byte-identical to the golden fixture (and to a traced run), because
   tracing never touches RNG state or artifact-cache keys.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.exec.executor import ParallelExecutor

pytestmark = []

BACKENDS = ("serial", "process")


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


@pytest.mark.parametrize("backend", BACKENDS)
def test_results_unchanged_by_tracing(backend):
    executor = ParallelExecutor(backend, max_workers=2)
    assert executor.map(traced_square, [1, 2, 3]) == [1, 4, 9]


@pytest.mark.parametrize("backend", BACKENDS)
def test_worker_spans_nest_under_map_span(backend, fresh_run):
    executor = ParallelExecutor(backend, max_workers=2)
    executor.map(traced_square, [1, 2, 3])
    records = fresh_run.tracer.records
    map_span = next(r for r in records if r.name == "exec/map")
    assert map_span.attrs["backend"] == backend
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


@pytest.mark.parametrize("backend", BACKENDS)
def test_span_ids_are_globally_unique(backend, fresh_run):
    executor = ParallelExecutor(backend, max_workers=2)
    executor.map(traced_square, [1, 2, 3, 4])
    ids = [r.span_id for r in fresh_run.tracer.records]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("backend", BACKENDS)
def test_worker_metrics_merge_back(backend, fresh_run):
    executor = ParallelExecutor(backend, max_workers=2)
    executor.map(traced_square, [1, 2, 3])
    assert fresh_run.metrics.counter_total("units") == 3


@pytest.mark.parametrize("backend", BACKENDS)
def test_off_records_nothing(backend, fresh_run, monkeypatch):
    monkeypatch.setenv(obs.ENV_TRACE, "off")
    executor = ParallelExecutor(backend, max_workers=2)
    assert executor.map(traced_square, [1, 2, 3]) == [1, 4, 9]
    assert fresh_run.tracer.records == []
    assert fresh_run.metrics.snapshot()["counters"] == {}


def test_nested_maps_nest_spans(fresh_run):
    inner = ParallelExecutor("serial")

    def nested(x):
        return inner.map(traced_square, [x, x + 1])

    outer = ParallelExecutor("serial")
    outer.map(nested, [1, 3])
    names = [r.name for r in fresh_run.tracer.records]
    assert names.count("exec/map") == 3  # one outer + two inner
    assert names.count("work") == 4


class TestOffDigestIdentity:
    """REPRO_TRACE=off leaves study outputs byte-identical.

    The golden fixture (``tests/golden/study_scale_0.01.digests``) pins
    the traced-run digests; a fresh untraced run must reproduce them
    exactly.  The in-process memo cache is cleared first so the off-path
    really recomputes.
    """

    def test_digests_match_golden_with_tracing_off(self, monkeypatch):
        from repro.sim import driver
        from tests.test_golden_digests import GOLDEN, SCALE, SEED, golden_lines

        monkeypatch.setenv(obs.ENV_TRACE, "off")
        driver.clear_cache()
        try:
            results = driver.run_all(scale=SCALE, seed=SEED)
            digests = {
                name: result.dataset.content_digest()
                for name, result in results.items()
            }
        finally:
            driver.clear_cache()
        expected = {
            line.split()[1]: line.split()[2] for line in golden_lines()
        }
        assert digests == expected, (
            f"REPRO_TRACE=off changed study digests vs {GOLDEN}"
        )
