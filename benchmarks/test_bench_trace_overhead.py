"""Tracing-overhead benchmark: spans must cost <5% on real work.

Runs :data:`PAIRS` pairs of one traced and one untraced simulation of a
vantage point's week, cycling through the five datasets and alternating
which arm of a pair goes first from one round of five to the next, and
asserts that the median per-pair ratio (traced over untraced) stays
within 5%, with no absolute slack.  A pair's two runs are a tenth of a
second apart, so drift in machine load hits both of them; the median
over many pairs discards the pairs a load spike hit one side of.  This
is the regression gate for the ``repro/obs`` instrumentation — if a new
span site makes the hot path measurably slower, this fails before the
trace ever reaches a user.
"""

import gc
import statistics
import time

from repro import obs
from repro.defaults import DATASET_NAMES
from repro.sim import driver

from benchmarks.conftest import OUT_DIR

#: Small but real workload: the simulation's span sites (exec/map, task
#: captures, stage memo wrappers, the sim layer spans) fire on this path.
OVERHEAD_SCALE = 0.005
#: Distinct seed so these runs never alias the shared ``results`` fixture.
OVERHEAD_SEED = 43
#: Traced/untraced pairs, each over one dataset's week; their median
#: ratio is judged.
PAIRS = 100
#: Relative budget for the tracing layer.
MAX_RELATIVE_OVERHEAD = 0.05


def _week_once(name: str) -> float:
    """One cold simulation of one week (a one-task batch, so in-process)
    under a fresh run context.

    The collector starts each run empty: otherwise the garbage of the run
    before is collected inside this one, and the first run of every pair
    reads slower than the second.
    """
    obs.new_run()
    driver.clear_cache()
    gc.collect()
    start = time.perf_counter()
    driver.run_all(scale=OVERHEAD_SCALE, seed=OVERHEAD_SEED, names=(name,))
    elapsed = time.perf_counter() - start
    driver.clear_cache()
    return elapsed


def _timed(monkeypatch, name: str, traced: bool) -> float:
    if traced:
        monkeypatch.delenv(obs.ENV_TRACE, raising=False)
    else:
        monkeypatch.setenv(obs.ENV_TRACE, "off")
    return _week_once(name)


def test_tracing_overhead_under_five_percent(monkeypatch, save_artifact):
    ratios = []
    for pair in range(PAIRS):
        name = DATASET_NAMES[pair % len(DATASET_NAMES)]
        traced_first = (pair // len(DATASET_NAMES)) % 2 == 0
        first = _timed(monkeypatch, name, traced_first)
        second = _timed(monkeypatch, name, not traced_first)
        on, off = (first, second) if traced_first else (second, first)
        ratios.append(on / off)
    monkeypatch.delenv(obs.ENV_TRACE, raising=False)
    obs.new_run()

    overhead = statistics.median(ratios) - 1.0
    OUT_DIR.mkdir(exist_ok=True)
    save_artifact(
        "perf_trace_overhead",
        f"tracing overhead: median traced/untraced ratio over {PAIRS} pairs "
        f"{overhead:+.1%} (pairs ranged {min(ratios) - 1.0:+.1%} to "
        f"{max(ratios) - 1.0:+.1%})",
    )
    assert overhead <= MAX_RELATIVE_OVERHEAD, (
        f"tracing adds {overhead:+.1%} (median of {PAIRS} traced/untraced "
        f"pairs); budget is {MAX_RELATIVE_OVERHEAD:.0%}"
    )
