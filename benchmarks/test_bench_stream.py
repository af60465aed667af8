"""Streaming vs. batch ingestion: throughput and peak memory.

Runs EU1-ADSL at 5 % and 10 % of paper traffic through both ingestion
paths — the batch simulator (materialise the whole week, then analyse)
and `stream_dataset` (event-driven windows, online folds) — and
measures wall time plus in-process peak allocation (``tracemalloc``)
for each.  The streamed digest must equal the batch dataset digest
(the byte-parity contract), and at the larger scale the streamed peak
allocation must stay *below* the batch peak: bounded memory is the
whole point of the streaming path.

Each scale's numbers go to a ``perf_stream_<scale>`` text artifact.  The
stream-smoke harness measures whole-process RSS; this benchmark measures
Python allocations in-process, which is the sharper signal for the
flow-record working set.
"""

from __future__ import annotations

import gc
import time
import tracemalloc
from typing import Tuple

import pytest

from repro.sim.driver import run_scenario
from repro.sim.scenarios import PAPER_SCENARIOS, build_world
from repro.stream.study import stream_dataset

BENCH_DATASET = "EU1-ADSL"
BENCH_SCALES = (0.05, 0.1)
BENCH_SEED = 7
WINDOW_S = 3600.0


def _traced(fn) -> Tuple[float, int, object]:
    """(wall seconds, tracemalloc peak bytes, result) for one call."""
    gc.collect()
    tracemalloc.start()
    try:
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return elapsed, peak, result


@pytest.mark.parametrize("scale", BENCH_SCALES)
def test_bench_stream_vs_batch(scale, save_artifact):
    spec = PAPER_SCENARIOS[BENCH_DATASET]

    batch_s, batch_peak, batch = _traced(
        lambda: run_scenario(BENCH_DATASET, scale=scale, seed=BENCH_SEED,
                             use_cache=False)
    )
    flows = len(batch.dataset.records)
    batch_digest = batch.dataset.content_digest()
    del batch
    gc.collect()

    world = build_world(spec, scale=scale, seed=BENCH_SEED)
    stream_s, stream_peak, streamed = _traced(
        lambda: stream_dataset(world, window_s=WINDOW_S)
    )

    # Byte-parity first — throughput of a wrong answer is meaningless.
    assert streamed.digest == batch_digest

    save_artifact(
        f"perf_stream_{scale}",
        f"{BENCH_DATASET} @ scale {scale}: "
        f"batch {flows / batch_s:,.0f} flows/s "
        f"(peak {batch_peak // 1024:,d} KB alloc), "
        f"stream {flows / stream_s:,.0f} flows/s "
        f"(peak {stream_peak // 1024:,d} KB alloc)",
    )

    # Bounded memory: at the larger scale the streamed working set must
    # undercut full materialisation.  (At tiny scales fixed costs — the
    # request schedule, accumulator dicts — can dominate either side.)
    if scale >= 0.1:
        assert stream_peak < batch_peak, (
            f"streamed peak allocation {stream_peak} >= batch {batch_peak}"
        )
        # Throughput should stay within an order of magnitude of batch.
        assert stream_s < 10.0 * batch_s

