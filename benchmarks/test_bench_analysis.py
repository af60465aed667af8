"""Kernel speedup benchmark: record-at-a-time spec vs. columnar kernels.

Simulates one large dataset (EU1-ADSL at 10 % of paper traffic — five
times the other benchmarks' volume, so the analysis hot path dominates),
then times the paper's heaviest analyses twice: through the spec in
``tests/oracle/`` and through the runtime kernels.  Both must produce
identical results; the combined speedup (sum of spec times over sum of
kernel times) must be at least 5x, and is printed with the per-stage
times (``pytest -s`` shows them).

Methodology: each stage is timed with ``time.perf_counter``, best of
``REPEATS`` passes over a *fresh* :class:`FlowTable` per pass — no
session-index or histogram cache survives between passes or stages.  The
one-time columnar materialisation is pre-built outside the timed region
(mirroring the real pipeline, where ``Dataset.table`` and
``StudyPipeline.focus_tables`` build each table once and every analysis
shares it) and is measured separately by
:func:`test_bench_columnar_materialisation`.
"""

from __future__ import annotations

import gc
import time
from typing import Callable, Dict, List, Tuple

import pytest

from repro.core import hotspots
from repro.core.pipeline import StudyPipeline
from repro.core.sessions import build_sessions, gap_sensitivity
from repro.reporting.series import Cdf
from repro.sim.driver import run_scenario
from repro.trace.columnar import FlowTable

from tests.oracle import hotspots as oracle_hotspots
from tests.oracle import sessions as oracle_sessions

BENCH_DATASET = "EU1-ADSL"
BENCH_SCALE = 0.1
REPEATS = 3
REQUIRED_SPEEDUP = 5.0


@pytest.fixture(scope="module")
def big_result():
    """EU1-ADSL at 10 % scale (simulated once; reused by every stage)."""
    return run_scenario(BENCH_DATASET, scale=BENCH_SCALE, seed=7)


@pytest.fixture(scope="module")
def analysis_inputs(big_result):
    """Server map + preferred report over the big dataset (built once).

    A small landmark budget keeps the CBG calibration out of the measured
    window — this benchmark times the *analysis* kernels, not geolocation.
    """
    pipe = StudyPipeline({BENCH_DATASET: big_result}, landmark_count=30, seed=11)
    return (
        pipe.focus_records[BENCH_DATASET],
        pipe.preferred_reports[BENCH_DATASET],
        pipe.server_map,
        pipe.dataset(BENCH_DATASET).num_hours,
    )


def _fresh_source(records) -> FlowTable:
    """A cold :class:`FlowTable` with only the columns materialised.

    The column build is charged to the materialisation benchmark, not the
    stage timings — the real pipeline builds each table exactly once and
    shares it across every analysis.  The session index and every other
    per-stage cache stay cold.
    """
    table = FlowTable(list(records))
    table.columns()
    table.dst_codes()
    return table


def _timed(records, fn: Callable[[FlowTable], object]) -> Tuple[float, object]:
    """Best-of-``REPEATS`` wall time over fresh tables, and the result.

    The collector is paused inside the timed region (both sides allocate
    tens of thousands of objects per pass; collection pauses would
    otherwise dominate the faster one's timings).
    """
    best = float("inf")
    result = None
    for _ in range(REPEATS):
        source = _fresh_source(records)
        result = None  # drop the previous pass's output before re-timing
        gc.collect()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            result = fn(source)
            best = min(best, time.perf_counter() - start)
        finally:
            if gc_was_enabled:
                gc.enable()
    return best, result


def _stages(report, smap, num_hours) -> List[Tuple[str, Callable, Callable]]:
    """``(name, kernel, spec)`` for every hot analysis stage."""
    return [
        (
            "build_sessions",
            lambda t: build_sessions(t, gap_s=1.0),
            lambda t: oracle_sessions.build_sessions(t, gap_s=1.0),
        ),
        ("gap_sensitivity", gap_sensitivity, oracle_sessions.gap_sensitivity),
        (
            "top_nonpreferred_videos",
            lambda t: hotspots.top_nonpreferred_videos(t, report, smap, num_hours),
            lambda t: oracle_hotspots.top_nonpreferred_videos(t, report, smap, num_hours),
        ),
        (
            "preferred_server_load",
            lambda t: hotspots.preferred_server_load(t, report, smap, num_hours),
            lambda t: oracle_hotspots.preferred_server_load(t, report, smap, num_hours),
        ),
        (
            "nonpreferred_video_cdf",
            lambda t: hotspots.nonpreferred_video_cdf(t, report, smap)._values,
            lambda t: Cdf(
                oracle_hotspots.nonpreferred_requests_per_video(t, report, smap).values()
            )._values,
        ),
    ]


def test_bench_kernel_speedup(analysis_inputs):
    records, report, smap, num_hours = analysis_inputs
    timings: Dict[str, Dict[str, float]] = {"spec": {}, "kernels": {}}
    for name, kernel, spec in _stages(report, smap, num_hours):
        timings["spec"][name], spec_out = _timed(records, spec)
        timings["kernels"][name], kernel_out = _timed(records, kernel)
        # The speedup only counts if the outputs are *identical*.
        assert kernel_out == spec_out, name

    spec_total = sum(timings["spec"].values())
    kernel_total = sum(timings["kernels"].values())
    speedup = spec_total / kernel_total
    per_stage = {
        stage: round(timings["spec"][stage] / timings["kernels"][stage], 2)
        for stage in timings["spec"]
    }

    print(f"\nkernel speedup on {BENCH_DATASET} at scale {BENCH_SCALE}, "
          f"{len(records)} flows, best of {REPEATS}:")
    for stage in timings["spec"]:
        print(f"  {stage:<24s} spec {timings['spec'][stage]:8.4f}s  "
              f"kernels {timings['kernels'][stage]:8.4f}s  {per_stage[stage]:6.2f}x")
    print(f"  combined {speedup:.2f}x (required {REQUIRED_SPEEDUP}x)")

    assert speedup >= REQUIRED_SPEEDUP, (
        f"combined kernel speedup {speedup:.2f}x below the required "
        f"{REQUIRED_SPEEDUP}x: {per_stage}"
    )


def test_bench_columnar_materialisation(benchmark, analysis_inputs):
    """Cost of the one-time columnar build (amortised across analyses)."""
    records, _, _, _ = analysis_inputs
    cols = benchmark(lambda: FlowTable(list(records)).columns())
    assert len(cols.t_start) == len(records)
