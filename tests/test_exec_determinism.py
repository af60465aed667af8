"""Determinism across paths: pooled runs are byte-identical to in-process.

The executor's contract is that fan-out is a pure mechanical speedup —
every unit of work owns RNGs derived from its own ``(scenario, vantage)``
path, so a batch run in-process and one fanned out over a process pool
must produce *identical* simulation results, down to the flow-log
bytes.  These tests hold the two wired hot paths (scenario fan-out, RTT
campaigns) to that contract, and check that one poisoned vantage point
cannot take down its siblings' results.
"""

import dataclasses

import pytest

from repro import obs
from repro.exec.executor import ExecutionError, fan_out
from repro.sim import driver
from repro.sim.scenarios import PAPER_SCENARIOS
from repro.trace.records import WEEK_S
from tests.execpaths import PATH_IDS, PATHS, forced

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
        with forced("in-process"):
            results = driver.run_all(scale=SCALE, seed=SEED)
        yield _snapshot(results)
    finally:
        driver.clear_cache()


@pytest.mark.parametrize("path", PATHS[1:], ids=PATH_IDS[1:])
def test_run_all_backends_byte_identical(path, serial_snapshot):
    driver.clear_cache()
    with forced(path):
        results = driver.run_all(scale=SCALE, seed=SEED)
    assert _snapshot(results) == serial_snapshot
    driver.clear_cache()


def test_run_all_hits_cache_after_parallel_run(serial_snapshot):
    driver.clear_cache()
    run = obs.new_run("cache-after-parallel")
    try:
        with forced("pooled"):
            first = driver.run_all(scale=SCALE, seed=SEED)
            again = driver.run_all(scale=SCALE, seed=SEED)
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
    results = driver.run_all(scale=SCALE, seed=SEED, names=("EU1-FTTH", "EU1-Campus"))
    campaigns = {}
    for path in PATHS:
        with forced(path):
            campaigns[path] = StudyPipeline(results, landmark_count=25).rtt_campaigns
    assert campaigns["in-process"] == campaigns["pooled"]
    assert all(campaigns["in-process"].values())
    driver.clear_cache()


def _simulate_task(key):
    """One scenario week as a plain executor task (errors stay contained)."""
    return driver.simulate_week(*key)


@pytest.mark.parametrize("path", PATHS, ids=PATH_IDS)
def test_poisoned_vantage_does_not_lose_the_others(path):
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
    with forced(path):
        results = fan_out(
            _simulate_task, keys,
            labels=[good[0], "EU2-poisoned", good[1]],
            on_error="return",
        )
    error = results[1]
    assert isinstance(error, ExecutionError)
    assert error.label == "EU2-poisoned"
    assert "not-a-network" in error.worker_traceback
    driver.clear_cache()
    expected = driver.run_all(scale=SCALE, seed=SEED, names=good)
    surviving = {good[0]: results[0], good[1]: results[2]}
    assert _snapshot(surviving) == _snapshot(expected)
    driver.clear_cache()
