"""Parallel execution benchmarks: multi-scenario fan-out speedup.

Times the five-dataset scenario suite under the session's backend
(``REPRO_EXECUTOR``) and once under serial as a baseline, asserts the two
runs are byte-identical, and records the measured speedup — the number the
CI benchmark-smoke job reports for the serial and process matrix legs.
The straggler is the slowest ``task:<label>`` span of the fanned-out run.
"""

import time

from repro import obs
from repro.exec.executor import ParallelExecutor
from repro.sim import driver

from benchmarks.conftest import BENCH_SCALE

#: Distinct seed so these runs never alias the shared ``results`` fixture.
FANOUT_SEED = 31


def _digest_all(results):
    return {name: result.dataset.content_digest() for name, result in results.items()}


def _straggler(run) -> str:
    """Label of the run's slowest task span (``n/a`` when tracing is off)."""
    tasks = [r for r in run.tracer.records if r.name.startswith("task:")]
    slowest = max(tasks, key=lambda r: r.inclusive_s, default=None)
    return slowest.attrs["label"] if slowest else "n/a"


def test_bench_multi_scenario_fanout(benchmark, executor, save_artifact):
    backend = executor.backend

    def fan_out():
        driver.clear_cache()
        run = obs.new_run()
        results = driver.run_all(
            scale=BENCH_SCALE, seed=FANOUT_SEED,
            executor=ParallelExecutor(backend, max_workers=executor.max_workers),
        )
        return run, results

    run, results = benchmark.pedantic(fan_out, rounds=2, iterations=1)
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
    line = (
        f"multi-scenario fan-out ({backend}): serial {serial_wall:.2f}s -> "
        f"{parallel_wall:.2f}s wall, speedup {speedup:.2f}x, "
        f"straggler {_straggler(run)}"
    )
    print(line)
    save_artifact(f"perf_parallel_{backend}", line)
    # Fan-out must never be pathologically slower than the serial loop
    # (pool startup is the only overhead); real speedup needs >1 core.
    assert speedup > 0.5
