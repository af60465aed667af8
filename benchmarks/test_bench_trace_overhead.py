"""Tracing-overhead benchmark: spans must cost <5% on real work.

Interleaves traced and untraced repetitions of the multi-scenario
simulation (so drift in machine load hits both arms equally), takes the
minimum wall time of each arm, and asserts the traced minimum stays
within 5% of the untraced one plus a small absolute slack for
sub-second noise.  This is the regression gate for the ``repro/obs``
instrumentation — if a new span site makes the hot path measurably
slower, this fails before the trace ever reaches a user.
"""

import time

from repro import obs
from repro.exec.executor import ParallelExecutor
from repro.sim import driver

from benchmarks.conftest import OUT_DIR

#: Small but real workload: the simulation's span sites (exec/map, task
#: captures, stage memo wrappers, the sim layer spans) fire on this path.
OVERHEAD_SCALE = 0.005
#: Distinct seed so these runs never alias the shared ``results`` fixture.
OVERHEAD_SEED = 43
REPS = 3
#: Relative budget for the tracing layer, plus absolute slack for noise.
MAX_RELATIVE_OVERHEAD = 0.05
ABSOLUTE_SLACK_S = 0.05


def _study_once() -> float:
    """One cold serial simulation run under a fresh run context."""
    obs.new_run()
    driver.clear_cache()
    start = time.perf_counter()
    driver.run_all(scale=OVERHEAD_SCALE, seed=OVERHEAD_SEED,
                   executor=ParallelExecutor("serial"))
    elapsed = time.perf_counter() - start
    driver.clear_cache()
    return elapsed


def test_tracing_overhead_under_five_percent(monkeypatch, save_artifact):
    timings = {"on": [], "off": []}
    for _ in range(REPS):
        monkeypatch.delenv(obs.ENV_TRACE, raising=False)
        timings["on"].append(_study_once())
        monkeypatch.setenv(obs.ENV_TRACE, "off")
        timings["off"].append(_study_once())
    monkeypatch.delenv(obs.ENV_TRACE, raising=False)
    obs.new_run()

    best_on = min(timings["on"])
    best_off = min(timings["off"])
    overhead = best_on / best_off - 1.0

    OUT_DIR.mkdir(exist_ok=True)
    save_artifact(
        "perf_trace_overhead",
        f"tracing overhead: traced {best_on:.3f}s vs untraced "
        f"{best_off:.3f}s (min of {REPS}), overhead {overhead:+.1%}",
    )
    assert best_on <= best_off * (1.0 + MAX_RELATIVE_OVERHEAD) + ABSOLUTE_SLACK_S, (
        f"tracing adds {overhead:+.1%} "
        f"({best_on:.3f}s traced vs {best_off:.3f}s untraced); "
        f"budget is {MAX_RELATIVE_OVERHEAD:.0%} + {ABSOLUTE_SLACK_S}s"
    )
