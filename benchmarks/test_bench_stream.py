"""Streaming vs. batch ingestion: throughput and peak memory.

Runs EU1-ADSL at 5 % and 10 % of paper traffic through both ingestion
paths — the batch simulator (materialise the whole week, then analyse)
and `stream_dataset` (the same monitor sealing hourly windows, folded
online) — and measures wall time plus in-process peak allocation
(``tracemalloc``) for each.  The streamed digest must equal the batch
dataset digest (the byte-parity contract), and at the larger scale the
streamed peak allocation must stay *below* the batch peak: bounded
memory is the whole point of the streaming path.

Each scale's numbers go to a ``perf_stream_<scale>`` text artifact.
Python allocations in-process are the sharper signal for the flow
working set; the whole study's peak RSS is gated too, each path in its
own process, read from that process's own ``VmHWM``: ``repro study
--stream`` at scale 0.1 must print the batch bytes, peak below the batch
run, and stay under a fixed ceiling.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Tuple

import pytest

import repro
from repro.sim.driver import run_scenario
from repro.sim.scenarios import PAPER_SCENARIOS, build_world
from repro.stream.study import stream_dataset

BENCH_DATASET = "EU1-ADSL"
BENCH_SCALES = (0.05, 0.1)
BENCH_SEED = 7
WINDOW_S = 3600.0

#: Ceiling on the streamed scale-0.1 study's peak RSS.  On a 2-vCPU
#: container with CPython 3.11.7 the streamed run peaked at ~170 MB
#: (interpreter, numpy, worlds and bounded folds) and the batch run, which
#: materialises every flow, at ~230 MB.
STREAM_RSS_CEILING_KB = 240_000

#: Runs ``repro`` with the given arguments and prints its peak RSS (KB)
#: as the last stderr line.  That is ``VmHWM``, the peak of the process's
#: own memory: its ``ru_maxrss`` would also count the resident set of the
#: process that spawned it (here pytest's, after the in-process scale-0.1
#: runs above), which an exec'd child inherits on Linux.
_RSS_CHILD = """
import sys
from repro.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
print(peak, file=sys.stderr)
sys.exit(code)
"""


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


def _study_rss(*flags: str) -> Tuple[int, str]:
    """(peak RSS in KB, stdout) of one scale-0.1 study in a fresh process."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]), REPRO_CACHE="off")
    proc = subprocess.run(
        [sys.executable, "-c", _RSS_CHILD, "study", "--scale", "0.1",
         "--landmarks", "60", "--digests", *flags],
        env=env, capture_output=True, text=True, check=True,
    )
    return int(proc.stderr.splitlines()[-1]), proc.stdout


def test_streamed_study_peak_rss_is_bounded(save_artifact):
    batch_rss, batch_out = _study_rss()
    stream_rss, stream_out = _study_rss("--stream")
    assert stream_out == batch_out
    save_artifact(
        "perf_stream_rss",
        f"study @ scale 0.1: batch peak RSS {batch_rss:,d} KB, "
        f"stream peak RSS {stream_rss:,d} KB (ceiling {STREAM_RSS_CEILING_KB:,d} KB)",
    )
    assert stream_rss < batch_rss
    assert stream_rss < STREAM_RSS_CEILING_KB
