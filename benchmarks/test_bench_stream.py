"""Streaming vs. batch ingestion: throughput and peak memory.

Runs EU1-ADSL at 5 % and 10 % of paper traffic through both ingestion
paths — the batch simulator (materialise the whole week, then analyse)
and `stream_dataset` (event-driven windows, online accumulators) — and
measures wall time plus in-process peak allocation (``tracemalloc``)
for each.  The streamed digest must equal the batch dataset digest
(the byte-parity contract), and at the larger scale the streamed peak
allocation must stay *below* the batch peak: bounded memory is the
whole point of the streaming path.

The numbers land in ``benchmarks/out/BENCH_stream.json`` (merged with
whatever the CI stream-smoke subprocess harness already wrote there —
that job measures whole-process RSS; this benchmark measures Python
allocations in-process, which is the sharper signal for the flow-record
working set).
"""

from __future__ import annotations

import gc
import json
import time
import tracemalloc
from typing import Dict, Tuple

import pytest

from repro.sim.driver import run_scenario
from repro.sim.scenarios import PAPER_SCENARIOS, build_world
from repro.stream.study import stream_dataset

from benchmarks.conftest import OUT_DIR

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
    assert streamed.digest.hexdigest() == batch_digest
    assert streamed.late_records == 0

    row = {
        "flows": flows,
        "windows": streamed.windows,
        "batch_seconds": round(batch_s, 4),
        "stream_seconds": round(stream_s, 4),
        "batch_flows_per_sec": round(flows / batch_s, 1),
        "stream_flows_per_sec": round(flows / stream_s, 1),
        "batch_peak_alloc_kb": batch_peak // 1024,
        "stream_peak_alloc_kb": stream_peak // 1024,
        "peak_open_sessions": streamed.peak_open_sessions,
        "peak_window_records": streamed.peak_window_records,
    }
    _merge_bench_json(f"scale_{scale}", row)
    save_artifact(
        f"perf_stream_{scale}",
        f"{BENCH_DATASET} @ scale {scale}: "
        f"batch {row['batch_flows_per_sec']:,.0f} flows/s "
        f"(peak {row['batch_peak_alloc_kb']:,d} KB alloc), "
        f"stream {row['stream_flows_per_sec']:,.0f} flows/s "
        f"(peak {row['stream_peak_alloc_kb']:,d} KB alloc, "
        f"{streamed.windows} windows)",
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


def _merge_bench_json(key: str, row: Dict[str, object]) -> None:
    """Fold one scale's row into ``BENCH_stream.json`` without clobbering
    sections other writers (the stream-smoke harness) may have added."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / "BENCH_stream.json"
    doc: Dict[str, object] = {}
    if path.exists():
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except ValueError:
            doc = {}
    bench = doc.setdefault("benchmark", {})
    bench["dataset"] = BENCH_DATASET
    bench["window_s"] = WINDOW_S
    bench["methodology"] = (
        "single in-process pass per path; peak = tracemalloc peak bytes "
        "over the full simulate+ingest call"
    )
    bench.setdefault("scales", {})[key] = row
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
