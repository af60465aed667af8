"""Cross-backend determinism: parallel runs are byte-identical to serial.

The executor's contract is that fan-out is a pure mechanical speedup —
every unit of work owns RNGs derived from its own ``(scenario, vantage)``
path, so the serial and process backends must produce *identical*
simulation results, down to the flow-log bytes.  These tests hold the two
wired hot paths (scenario fan-out, RTT campaigns) to that contract, and check that one poisoned vantage point cannot take
down its siblings' results.
"""

import dataclasses

import pytest

from repro import obs
from repro.exec.executor import BACKENDS, ExecutionError, ParallelExecutor
from repro.sim import driver
from repro.sim.scenarios import PAPER_SCENARIOS
from repro.trace.records import WEEK_S

SCALE = 0.004
SEED = 23


def _snapshot(results):
    """Everything the acceptance criteria compare, hashable and exact."""
    return {
        name: (
            result.requests,
            tuple(sorted(result.cause_counts.items())),
            tuple(sorted(result.dns_dc_counts.items())),
            tuple(sorted(result.served_dc_counts.items())),
            tuple(result.startup_delay_samples),
            tuple(result.serving_rtt_samples),
            result.dataset.content_digest(),
        )
        for name, result in results.items()
    }


@pytest.fixture(scope="module")
def serial_snapshot():
    driver.clear_cache()
    try:
        results = driver.run_all(
            scale=SCALE, seed=SEED, executor=ParallelExecutor("serial")
        )
        yield _snapshot(results)
    finally:
        driver.clear_cache()


@pytest.mark.parametrize("backend", ["process"])
def test_run_all_backends_byte_identical(backend, serial_snapshot):
    driver.clear_cache()
    results = driver.run_all(
        scale=SCALE, seed=SEED, executor=ParallelExecutor(backend, max_workers=2)
    )
    assert _snapshot(results) == serial_snapshot
    driver.clear_cache()


def test_run_all_hits_cache_after_parallel_run(serial_snapshot):
    driver.clear_cache()
    run = obs.new_run("cache-after-parallel")
    try:
        executor = ParallelExecutor("process", max_workers=2)
        first = driver.run_all(scale=SCALE, seed=SEED, executor=executor)
        again = driver.run_all(scale=SCALE, seed=SEED, executor=executor)
        assert all(again[name] is first[name] for name in first)
        # Only the first call did any work.
        tasks = [r for r in run.tracer.records if r.name.startswith("task:")]
        assert len(tasks) == len(first)
    finally:
        obs.set_current_run(None)
        driver.clear_cache()


def test_rtt_campaigns_backends_identical():
    from repro.core.pipeline import StudyPipeline

    driver.clear_cache()
    results = driver.run_all(scale=SCALE, seed=SEED,
                             names=("EU1-FTTH", "EU1-Campus"),
                             executor=ParallelExecutor("serial"))
    campaigns = {}
    for backend in BACKENDS:
        pipeline = StudyPipeline(
            results, landmark_count=25,
            executor=ParallelExecutor(backend, max_workers=2),
        )
        campaigns[backend] = pipeline.rtt_campaigns
    assert campaigns["serial"] == campaigns["process"]
    assert all(campaigns["serial"].values())
    driver.clear_cache()


def _simulate_task(key):
    """One scenario week as a plain executor task (errors stay contained)."""
    return driver.simulate_week(*key)


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_poisoned_vantage_does_not_lose_the_others(backend):
    """One bad scenario surfaces as an ExecutionError; siblings survive."""
    good = ("EU1-FTTH", "EU1-Campus")
    poisoned = dataclasses.replace(
        PAPER_SCENARIOS["EU2"], client_block="not-a-network"
    )
    keys = [
        (PAPER_SCENARIOS[good[0]], SCALE, SEED, WEEK_S, "preferred"),
        (poisoned, SCALE, SEED, WEEK_S, "preferred"),
        (PAPER_SCENARIOS[good[1]], SCALE, SEED, WEEK_S, "preferred"),
    ]
    executor = ParallelExecutor(backend, max_workers=2)
    results = executor.map(
        _simulate_task, keys,
        labels=[good[0], "EU2-poisoned", good[1]],
        on_error="return",
    )
    error = results[1]
    assert isinstance(error, ExecutionError)
    assert error.label == "EU2-poisoned"
    assert "not-a-network" in error.worker_traceback
    driver.clear_cache()
    expected = driver.run_all(scale=SCALE, seed=SEED, names=good,
                              executor=ParallelExecutor("serial"))
    surviving = {good[0]: results[0], good[1]: results[2]}
    assert _snapshot(surviving) == _snapshot(expected)
    driver.clear_cache()
