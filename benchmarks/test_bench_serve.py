"""Serving speedup benchmark: the per-request spec vs. the runtime loop.

Simulates the five paper weeks at :data:`SCALE` twice: through the spec
in ``tests/oracle/serving`` (every request formats its hostname, walks
the DNS objects, recomputes its path floors and builds one
``FlowEvent`` per flow; ``np.searchsorted`` sampling) and through
:func:`repro.sim.engine.run_requests`.  Both must produce the same
records, ground truth, tallies and performance samples; the runtime must
be at least :data:`REQUIRED_SPEEDUP` times faster.  Only request
generation and serving are timed: each side gets freshly built worlds.

Run it with ``PYTHONPATH=src python -m pytest benchmarks/test_bench_serve.py -s``.
Each side is timed with ``time.perf_counter``, best of :data:`REPEATS`.
"""

from __future__ import annotations

import time
from typing import Callable, List, Tuple

from repro.defaults import DATASET_NAMES
from repro.sim.engine import SimulationResult, run_requests
from repro.sim.scenarios import PAPER_SCENARIOS, build_world

from tests.oracle import records_of
from tests.oracle import serving as oracle

SCALE = 0.01
SEED = 7
REPEATS = 3
REQUIRED_SPEEDUP = 1.5


def _best_of(run: Callable) -> Tuple[float, List[SimulationResult]]:
    best, results = float("inf"), []
    for _ in range(REPEATS):
        worlds = [
            build_world(PAPER_SCENARIOS[name], scale=SCALE, seed=SEED)
            for name in DATASET_NAMES
        ]
        start = time.perf_counter()
        results = [run(world) for world in worlds]
        best = min(best, time.perf_counter() - start)
    return best, results


def test_bench_serve_speedup_over_spec():
    spec_s, spec_results = _best_of(oracle.run_requests)
    runtime_s, runtime_results = _best_of(run_requests)
    for got, want in zip(runtime_results, spec_results):
        assert records_of(got.dataset.table) == records_of(want.dataset.table)
        assert got.truth == want.truth
        assert got.cause_counts == want.cause_counts
        assert got.startup_delay_samples == want.startup_delay_samples
        assert got.serving_rtt_samples == want.serving_rtt_samples

    requests = sum(result.requests for result in runtime_results)
    speedup = spec_s / runtime_s
    print(
        f"\nserving {requests} requests over {len(DATASET_NAMES)} weeks at scale {SCALE}: "
        f"spec {spec_s:.3f}s, runtime {runtime_s:.3f}s, {speedup:.2f}x"
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"serving only {speedup:.2f}x faster than the spec (need {REQUIRED_SPEEDUP}x)"
    )
