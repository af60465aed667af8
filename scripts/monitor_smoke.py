#!/usr/bin/env python3
"""Longitudinal-monitoring smoke test.

Runs ``repro monitor`` in subprocesses and asserts the subsystem's four
acceptance guarantees at scale 0.01:

1. **Detection** — the built-in demo evolution's three scheduled changes
   are detected at exactly their epochs (precision and recall 1.0, so
   both clear the >= 0.9 gate) with zero false alarms.
2. **Static stability** — a never-changing world raises zero alarms.
3. **Degradation is not change** — a static world under a nonzero fault
   plan (30 % probe loss) stays alarm-free while actually losing probes.
4. **Incremental epochs** — a warm re-run with the horizon extended
   simulates only the appended epochs; the cached prefix is served from
   the artifact store with byte-identical digests.

Timing and the verdicts are printed as one JSON report.

Usage::

    python scripts/monitor_smoke.py [--scale 0.01] [--epochs 8]
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


def run_monitor_cli(argv: list, extra_env: dict = {}) -> dict:
    """One ``repro monitor --json`` run in a fresh subprocess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env.setdefault("REPRO_CACHE", "off")
    env.update(extra_env)
    command = [sys.executable, "-m", "repro", "monitor", "--json", *argv]
    start = time.perf_counter()
    proc = subprocess.run(command, env=env, cwd=REPO, text=True,
                          capture_output=True)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(
            f"repro monitor {argv} exited {proc.returncode}:\n{proc.stderr}")
    doc = json.loads(proc.stdout)
    doc["_elapsed_s"] = elapsed
    return doc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.01)
    parser.add_argument("--epochs", type=int, default=8)
    args = parser.parse_args()

    common = ["--scale", str(args.scale), "--seed", "7",
              "--epochs", str(args.epochs)]
    failures: list = []
    report: dict = {"scale": args.scale, "epochs": args.epochs}

    # ---- 1. demo evolution: every scheduled change, nothing else ------
    evolving = run_monitor_cli(common)
    verdict = evolving["verdict"]
    report["evolving"] = verdict
    report["evolving_s"] = round(evolving["_elapsed_s"], 3)
    if verdict["alarms"] != verdict["truth"]:
        failures.append(
            f"evolving world alarms {verdict['alarms']} != scheduled "
            f"changes {verdict['truth']}")
    if verdict["score"]["precision"] < 0.9 or verdict["score"]["recall"] < 0.9:
        failures.append(f"detection below the 0.9 gate: {verdict['score']}")

    # ---- 2. static world: zero alarms ---------------------------------
    static = run_monitor_cli(common + ["--static"])
    report["static"] = static["verdict"]
    if static["verdict"]["alarms"]:
        failures.append(
            f"static world raised alarms {static['verdict']['alarms']}")

    # ---- 3. degradation is not change ---------------------------------
    faulted = run_monitor_cli(
        common + ["--static", "--faults", '{"probe_loss": 0.3}'])
    report["faulted"] = faulted["verdict"]
    lost = sum(row["probes_lost"] for row in faulted["timeline"])
    report["faulted_probes_lost"] = lost
    if faulted["verdict"]["alarms"]:
        failures.append(
            f"static world under fault plan raised alarms "
            f"{faulted['verdict']['alarms']}")
    if lost == 0:
        failures.append("fault plan lost no probes; confusion test is vacuous")
    degraded_epochs = sum(1 for row in faulted["timeline"] if row["degradation"])
    report["faulted_degraded_epochs"] = degraded_epochs
    if degraded_epochs == 0:
        failures.append("per-epoch degradation counters missing under faults")

    # ---- 4. warm re-run simulates only the appended epochs ------------
    with tempfile.TemporaryDirectory(prefix="repro-monitor-smoke-") as cache:
        cache_env = {"REPRO_CACHE": "on", "REPRO_CACHE_DIR": cache}
        shorter = ["--scale", str(args.scale), "--seed", "7",
                   "--epochs", str(args.epochs - 2)]
        cold = run_monitor_cli(shorter, cache_env)
        warm = run_monitor_cli(common, cache_env)
        report["cold_epochs_computed"] = cold["epochs_computed"]
        report["warm_epochs_cached"] = warm["epochs_cached"]
        report["warm_epochs_computed"] = warm["epochs_computed"]
        report["warm_s"] = round(warm["_elapsed_s"], 3)
        if cold["epochs_cached"] != 0:
            failures.append("cold run claims cached epochs in a fresh cache")
        if warm["epochs_cached"] != args.epochs - 2:
            failures.append(
                f"warm re-run cached {warm['epochs_cached']} epochs, "
                f"expected {args.epochs - 2}")
        if warm["epochs_computed"] != 2:
            failures.append(
                f"warm re-run computed {warm['epochs_computed']} epochs, "
                "expected only the 2 appended ones")
        cold_digests = [row["digest"] for row in cold["timeline"]]
        warm_digests = [row["digest"] for row in warm["timeline"]]
        if warm_digests[: len(cold_digests)] != cold_digests:
            failures.append("cached epoch digests differ from the cold run")
        if warm["verdict"] != evolving["verdict"]:
            failures.append("warm verdict differs from the uncached run")

    print(json.dumps(report, indent=2, sort_keys=True))

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("monitor smoke OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
