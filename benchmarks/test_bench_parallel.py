"""Parallel execution benchmarks: multi-scenario fan-out speedup.

Times the five-dataset scenario suite under the session's backend
(``REPRO_EXECUTOR``) and once under serial as a baseline, asserts the two
runs are byte-identical, and records the measured speedup — the number the
CI benchmark-smoke job reports for the serial and process matrix legs.
"""

import time

from repro.exec.executor import ParallelExecutor
from repro.reporting.timing import write_timing_json
from repro.sim import driver

from benchmarks.conftest import BENCH_SCALE, OUT_DIR

#: Distinct seed so these runs never alias the shared ``results`` fixture.
FANOUT_SEED = 31


def _digest_all(results):
    return {name: result.dataset.content_digest() for name, result in results.items()}


def test_bench_multi_scenario_fanout(benchmark, executor, save_artifact):
    backend = executor.backend

    def fan_out():
        driver.clear_cache()
        run_executor = ParallelExecutor(backend, max_workers=executor.max_workers)
        results = driver.run_all(scale=BENCH_SCALE, seed=FANOUT_SEED,
                                 executor=run_executor)
        return run_executor, results

    run_executor, results = benchmark.pedantic(fan_out, rounds=2, iterations=1)
    parallel_wall = benchmark.stats.stats.min

    driver.clear_cache()
    t0 = time.perf_counter()
    serial_results = driver.run_all(scale=BENCH_SCALE, seed=FANOUT_SEED,
                                    executor=ParallelExecutor("serial"))
    serial_wall = time.perf_counter() - t0
    driver.clear_cache()

    # The mechanical speedup must never change the science.
    assert _digest_all(results) == _digest_all(serial_results)

    speedup = serial_wall / parallel_wall
    OUT_DIR.mkdir(exist_ok=True)
    summary = write_timing_json(
        run_executor.stats, OUT_DIR / f"timing_run_all_{backend}.json"
    )
    straggler = summary["straggler"]["label"] if summary["straggler"] else "n/a"
    save_artifact(
        f"perf_parallel_{backend}",
        f"multi-scenario fan-out ({backend}): serial {serial_wall:.2f}s -> "
        f"{parallel_wall:.2f}s wall, speedup {speedup:.2f}x, "
        f"straggler {straggler}",
    )
    # Fan-out must never be pathologically slower than the serial loop
    # (pool startup is the only overhead); real speedup needs >1 core.
    assert speedup > 0.5
