"""Execution benchmark: the five-week fan-out, pooled against in-process.

Times the five-dataset scenario suite with every batch forced onto a
process pool, and once with every batch forced in-process as the
baseline (both through the executor's decision, so both run on any
host), asserts the two runs are byte-identical, and records the measured
speedup.  The straggler is the slowest ``task:<label>`` span of the
pooled run.
"""

import time

from repro import obs
from repro.sim import driver

from benchmarks.conftest import BENCH_SCALE
from tests.execpaths import forced

#: Distinct seed so these runs never alias the shared ``results`` fixture.
FANOUT_SEED = 31


def _digest_all(results):
    return {name: result.dataset.content_digest() for name, result in results.items()}


def _straggler(run) -> str:
    """Label of the run's slowest task span (``n/a`` when tracing is off)."""
    tasks = [r for r in run.tracer.records if r.name.startswith("task:")]
    slowest = max(tasks, key=lambda r: r.inclusive_s, default=None)
    return slowest.attrs["label"] if slowest else "n/a"


def test_bench_multi_scenario_fanout(benchmark, save_artifact):
    def pooled():
        driver.clear_cache()
        run = obs.new_run()
        with forced("pooled"):
            results = driver.run_all(scale=BENCH_SCALE, seed=FANOUT_SEED)
        return run, results

    run, results = benchmark.pedantic(pooled, rounds=2, iterations=1)
    pooled_wall = benchmark.stats.stats.min

    driver.clear_cache()
    t0 = time.perf_counter()
    with forced("in-process"):
        in_process = driver.run_all(scale=BENCH_SCALE, seed=FANOUT_SEED)
    in_process_wall = time.perf_counter() - t0
    driver.clear_cache()

    # The mechanical speedup must never change the science.
    assert _digest_all(results) == _digest_all(in_process)

    speedup = in_process_wall / pooled_wall
    line = (
        f"multi-scenario fan-out: in-process {in_process_wall:.2f}s -> "
        f"pooled {pooled_wall:.2f}s wall, speedup {speedup:.2f}x, "
        f"straggler {_straggler(run)}"
    )
    print(line)
    save_artifact("perf_parallel", line)
    # A pool must never be pathologically slower than the in-process loop
    # (its start-up is the only overhead); real speedup needs >1 core.
    assert speedup > 0.5
