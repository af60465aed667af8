"""Cold-then-warm study: the artifact cache must pay for itself.

Runs ``repro study --landmarks 215 --full --digests`` twice against one
fresh cache, each in its own process, so only the store carries work
across.  The warm run must print the cold run's bytes, read from the
store, and finish at least 5x faster.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import repro

SCALE = "0.02"
MIN_SPEEDUP = 5.0


def _repro(*argv: str, cache_dir: Path) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]),
               REPRO_CACHE_DIR=str(cache_dir))
    return subprocess.run([sys.executable, "-m", "repro", *argv], env=env,
                          capture_output=True, text=True, check=True)


def test_warm_study_is_five_times_faster(tmp_path, save_artifact):
    argv = ("study", "--scale", SCALE, "--landmarks", "215", "--full", "--digests")
    start = time.perf_counter()
    cold = _repro(*argv, cache_dir=tmp_path)
    cold_s = time.perf_counter() - start
    start = time.perf_counter()
    warm = _repro(*argv, cache_dir=tmp_path)
    warm_s = time.perf_counter() - start
    stats = json.loads(_repro("cache", "stats", "--json", cache_dir=tmp_path).stdout)

    assert warm.stdout == cold.stdout
    assert stats["lifetime"]["total"]["hits"] >= 1
    save_artifact(
        "perf_cache",
        f"study @ scale {SCALE}: cold {cold_s:.2f} s, warm {warm_s:.2f} s "
        f"({cold_s / warm_s:.1f}x)",
    )
    assert cold_s >= MIN_SPEEDUP * warm_s
