#!/usr/bin/env python3
"""Selection-policy testbed smoke test.

Runs ``repro eval`` once per registered selection policy at the pinned
golden scale (0.01, seed 7) under the **process** backend, in separate
subprocesses, and asserts the testbed's end-to-end guarantees:

1. **Every policy evaluates** — each registered kind simulates a full
   five-dataset week, flows through the blind analysis pipeline, and
   produces a ground-truth confusion matrix.
2. **Byte identity** — every policy's per-dataset digests match its
   golden fixture (``tests/golden/study_<policy>_0.01.digests``), and
   the ``preferred`` digests additionally match the baseline study
   fixture (``study_scale_0.01.digests``) byte for byte.
3. **Methodology sanity** — on the baseline ``preferred`` world the
   blind verdicts agree with ground truth on >= 99 % of sessions and
   the inferred preferred data center is the policy's intended one.

Each policy's wall time and mean accuracy are printed as it finishes.

Usage::

    python scripts/policy_smoke.py [--scale 0.01] [--landmarks 60]
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
GOLDEN_DIR = REPO / "tests" / "golden"

SEED = 7


def golden_digests(path: Path) -> dict:
    """``digest <dataset> <sha256>`` lines -> {dataset: sha256}."""
    return {
        line.split()[1]: line.split()[2]
        for line in path.read_text(encoding="ascii").splitlines()
        if line.strip()
    }


def registered_kinds() -> list:
    proc = subprocess.run(
        [sys.executable, "-c",
         "from repro.cdn.selection import registered_policy_kinds\n"
         "print('\\n'.join(registered_policy_kinds()))"],
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        cwd=REPO, text=True, capture_output=True, check=True,
    )
    return proc.stdout.split()


def run_eval(kind: str, cache_dir: str, scale: float,
             landmarks: int) -> tuple:
    """One ``repro eval --json`` subprocess; returns (seconds, document)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env["REPRO_CACHE_DIR"] = cache_dir
    env.pop("REPRO_CACHE", None)
    command = [
        sys.executable, "-m", "repro", "eval", "--policy", kind,
        "--scale", str(scale), "--seed", str(SEED),
        "--landmarks", str(landmarks), "--json",
        "--parallel", "process",
    ]
    started = time.perf_counter()
    proc = subprocess.run(command, env=env, cwd=REPO, text=True,
                          capture_output=True, check=True)
    elapsed = time.perf_counter() - started
    return elapsed, json.loads(proc.stdout)[kind]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.01)
    parser.add_argument("--landmarks", type=int, default=60)
    args = parser.parse_args()

    kinds = registered_kinds()
    print(f"policies: {', '.join(kinds)}")
    failures = []
    table = {}

    with tempfile.TemporaryDirectory(prefix="repro-policy-smoke-") as cache:
        for kind in kinds:
            elapsed, document = run_eval(kind, cache, args.scale,
                                         args.landmarks)
            accuracies = {
                name: entry["accuracy"]
                for name, entry in document["datasets"].items()
            }
            table[kind] = {
                "accuracy": accuracies,
                "preferred_match": {
                    name: entry["preferred_match"]
                    for name, entry in document["datasets"].items()
                },
                "digests": document["digests"],
            }
            print(f"{kind:>14s}: {elapsed:6.2f}s  "
                  f"mean accuracy {document['mean_accuracy']:.3f}")

            if len(document["datasets"]) != 5:
                failures.append(
                    f"{kind}: evaluated {len(document['datasets'])} "
                    "datasets, expected 5"
                )
            fixture = GOLDEN_DIR / f"study_{kind}_0.01.digests"
            if args.scale == 0.01:
                if not fixture.exists():
                    failures.append(f"{kind}: no golden fixture {fixture}")
                elif document["digests"] != golden_digests(fixture):
                    failures.append(
                        f"{kind}: digests drifted from {fixture.name}"
                    )

    if args.scale == 0.01:
        baseline = golden_digests(GOLDEN_DIR / "study_scale_0.01.digests")
        if table.get("preferred", {}).get("digests") != baseline:
            failures.append(
                "preferred digests are not byte-identical to the baseline "
                "golden fixture (study_scale_0.01.digests)"
            )

    for name, accuracy in table.get("preferred", {}).get("accuracy", {}).items():
        if accuracy < 0.99:
            failures.append(
                f"baseline attribution accuracy on {name} is "
                f"{accuracy:.4f} < 0.99"
            )
    for name, matched in table.get("preferred", {}).get(
            "preferred_match", {}).items():
        if not matched:
            failures.append(
                f"baseline preferred-DC inference missed on {name}"
            )

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("policy smoke OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
