"""Shared benchmark fixtures.

The simulated week and the pipeline prerequisites are built once per
session; each benchmark times its own analysis step and writes the
regenerated table/figure into ``benchmarks/out/`` so the artifacts can be
compared against the paper (see EXPERIMENTS.md).

Volume scale: 2 % of the paper's traffic.  Absolute counts scale with it;
every shape assertion is scale-free.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

# Benchmarks time real compute; a warm artifact cache would make the
# numbers meaningless.  Opt in explicitly (REPRO_CACHE=on) to benchmark
# warm-cache behaviour instead.
os.environ.setdefault("REPRO_CACHE", "off")

from repro.core.pipeline import StudyPipeline
from repro.sim.driver import run_all

BENCH_SCALE = 0.02
BENCH_SEED = 7

OUT_DIR = Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def results():
    """The five simulated datasets."""
    return run_all(scale=BENCH_SCALE, seed=BENCH_SEED)


@pytest.fixture(scope="session")
def pipe(results):
    """The analysis pipeline (full 215-landmark CBG)."""
    return StudyPipeline(results, landmark_count=None, seed=11)


@pytest.fixture(scope="session")
def save_artifact():
    """Writer for regenerated tables/figures."""
    OUT_DIR.mkdir(exist_ok=True)

    def save(name: str, text: str) -> Path:
        path = OUT_DIR / f"{name}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        return path

    return save
