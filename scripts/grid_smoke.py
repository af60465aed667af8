#!/usr/bin/env python3
"""Grid incrementality smoke test.

Runs a 2x2 scenario grid cold against a fresh artifact cache, then
re-runs the *extended* grid (one axis value added) and asserts the spec
layer's incrementality guarantee:

1. **Cold coverage** — the first run simulates every enumerated point
   (no warm rows in an empty cache).
2. **Incrementality** — the extended re-run simulates *only* the added
   points; every original point is a warm cache hit, verified both from
   the runs' own warm/cold summary lines and from the store's
   ``repro cache stats --json`` counters.
3. **Stability** — the metric rows of the common points are identical
   across the two runs (warm rows are transparent stand-ins).

Each run is a separate subprocess, so the warm re-run demonstrates the
*cross-process* cache.  Timings and counters are printed.

Usage::

    python scripts/grid_smoke.py [--scale 0.01]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

BASE_AXES = ["--axis", "policy=preferred,proportional",
             "--axis", "spill_probability=0.0,0.1"]
EXTENDED_AXES = ["--axis", "policy=preferred,proportional,geographic",
                 "--axis", "spill_probability=0.0,0.1"]


def run_grid(cache_dir: str, scale: float, axes: list) -> tuple[float, dict, str]:
    """One ``repro grid run`` subprocess; returns (seconds, rows, summary)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env["REPRO_CACHE_DIR"] = cache_dir
    env.pop("REPRO_CACHE", None)  # the smoke must exercise the cache
    command = [sys.executable, "-m", "repro", "grid", "run",
               "--base", "EU1-FTTH", "--scale", str(scale)] + axes
    started = time.perf_counter()
    proc = subprocess.run(command, env=env, cwd=REPO, text=True,
                          capture_output=True, check=True)
    elapsed = time.perf_counter() - started
    rows = {}
    summary = ""
    for line in proc.stdout.splitlines():
        stripped = line.strip()
        if stripped.startswith("grid:"):
            summary = stripped
        elif stripped and not stripped.startswith("point"):
            label, *cells = stripped.split()
            rows[label] = cells
    if not summary:
        raise SystemExit("no 'grid:' summary line in grid run output")
    return elapsed, rows, summary


def parse_summary(summary: str) -> tuple[int, int, int]:
    """``grid: N points (W warm, C simulated)`` -> (N, W, C)."""
    words = summary.replace("(", " ").replace(",", " ").split()
    return int(words[1]), int(words[3]), int(words[5])


def cache_stats(cache_dir: str) -> dict:
    """The store's ``stats --json`` document, from a subprocess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env["REPRO_CACHE_DIR"] = cache_dir
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "cache", "stats", "--json"],
        env=env, cwd=REPO, text=True, capture_output=True, check=True,
    )
    return json.loads(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.01)
    args = parser.parse_args()

    failures = []
    with tempfile.TemporaryDirectory(prefix="repro-grid-smoke-") as cache_dir:
        print(f"cache: {cache_dir}")
        cold_s, cold_rows, cold_summary = run_grid(cache_dir, args.scale,
                                                   BASE_AXES)
        print(f"cold:     {cold_s:6.2f}s  {cold_summary}")
        points, warm, simulated = parse_summary(cold_summary)
        if (points, warm, simulated) != (4, 0, 4):
            failures.append(f"cold run expected 4 points/0 warm/4 simulated, "
                            f"got {cold_summary!r}")

        stats_before = cache_stats(cache_dir)["lifetime"]["stages"]

        warm_s, warm_rows, warm_summary = run_grid(cache_dir, args.scale,
                                                   EXTENDED_AXES)
        print(f"extended: {warm_s:6.2f}s  {warm_summary}")
        points, warm, simulated = parse_summary(warm_summary)
        added = 2  # one new policy value x two spill values
        if (points, warm, simulated) != (6, 4, added):
            failures.append(f"extended run expected 6 points/4 warm/2 "
                            f"simulated, got {warm_summary!r}")

        stats_after = cache_stats(cache_dir)["lifetime"]["stages"]
        print("stages after:", json.dumps(stats_after, sort_keys=True))

    for label, cells in cold_rows.items():
        if warm_rows.get(label) != cells:
            failures.append(f"common point {label!r} changed across runs: "
                            f"{cells} -> {warm_rows.get(label)}")

    metrics_before = stats_before.get("whatif/metrics", {})
    metrics_after = stats_after.get("whatif/metrics", {})
    new_puts = metrics_after.get("puts", 0) - metrics_before.get("puts", 0)
    new_hits = metrics_after.get("hits", 0) - metrics_before.get("hits", 0)
    if new_puts != added:
        failures.append(f"extended run wrote {new_puts} metric rows, "
                        f"expected exactly the {added} added points")
    if new_hits < 4:
        failures.append(f"extended run recorded {new_hits} metric-row hits, "
                        f"expected >= 4 (the common points)")

    rows_identical = not any("changed across runs" in f for f in failures)
    print(f"added points simulated: {new_puts}  common-point hits: {new_hits}  "
          f"rows identical: {rows_identical}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("grid smoke OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
