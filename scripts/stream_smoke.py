#!/usr/bin/env python3
"""Streaming ingestion smoke test.

Runs the paper study through both ingestion paths in *separate
subprocesses* (so each run's peak RSS is its own, unpolluted by the
other) and asserts the streaming layer's two guarantees:

1. **Byte parity** — ``repro study --stream --digests`` produces
   byte-for-byte identical stdout to the batch path at scale 0.05, at
   two different window sizes (one hour and 15 minutes).  A record the
   windower dropped as late would change its dataset's digest, so parity
   also rules late records out.
2. **Bounded memory** — at scale 0.1 the streamed run's peak RSS
   (``resource.getrusage`` in the child) stays below the
   full-materialisation batch run's peak RSS *and* under a fixed
   absolute ceiling, so the bound cannot silently erode even if the
   batch baseline bloats.

Timings and the two peak RSS values are printed as one JSON report;
the committed ``BENCH_*.json`` ledger is perfbench's, not this script's.

Usage::

    python scripts/stream_smoke.py [--parity-scale 0.05] [--rss-scale 0.1]

The harness re-invokes itself with ``--child``: the child redirects
stdout to a file, runs ``repro.cli.main`` in-process, and reports
``{elapsed_s, max_rss_kb, exit_code}`` as JSON — everything the parent
compares.
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

#: Absolute ceiling on the streamed scale-0.1 study's peak RSS.  The
#: run sits around 170 MB on CI's runners (interpreter + numpy + worlds
#: + bounded accumulators); the batch run materialises every flow and
#: lands well above 250 MB.  Generous headroom, but still a hard stop
#: against unbounded-buffering regressions.
STREAM_RSS_CEILING_KB = 240_000

LANDMARKS = 60  # keep CBG calibration cheap; irrelevant to ingestion


def child_main(report_path: str, stdout_path: str, argv: list) -> int:
    """Run one ``repro`` CLI invocation in-process and report on it."""
    import resource

    from repro.cli import main

    start = time.perf_counter()
    with open(stdout_path, "w", encoding="utf-8") as sink:
        saved = sys.stdout
        sys.stdout = sink
        try:
            code = main(argv)
        finally:
            sys.stdout = saved
    payload = {
        "elapsed_s": time.perf_counter() - start,
        "max_rss_kb": int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss),
        "exit_code": int(code or 0),
    }
    Path(report_path).write_text(json.dumps(payload) + "\n", encoding="utf-8")
    return int(code or 0)


def run_child(argv: list, workdir: str) -> dict:
    """One CLI run in a fresh subprocess; returns the child's report."""
    report_path = os.path.join(workdir, "report.json")
    stdout_path = os.path.join(workdir, "stdout.txt")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env["REPRO_CACHE"] = "off"  # smoke times real compute, byte-compares real runs
    command = [sys.executable, str(Path(__file__).resolve()), "--child",
               report_path, stdout_path, "--", *argv]
    proc = subprocess.run(command, env=env, cwd=REPO, text=True,
                          capture_output=True)
    if proc.returncode != 0:
        raise SystemExit(
            f"child {argv} exited {proc.returncode}:\n{proc.stderr}")
    report = json.loads(Path(report_path).read_text(encoding="utf-8"))
    report["stdout"] = Path(stdout_path).read_text(encoding="utf-8")
    return report


def study_argv(scale: float, stream: bool = False,
               window_s: float = 3600.0) -> list:
    argv = ["study", "--scale", str(scale), "--landmarks", str(LANDMARKS),
            "--digests"]
    if stream:
        argv += ["--stream", "--window-s", str(window_s)]
    return argv


def main() -> int:
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        split = sys.argv.index("--")
        return child_main(sys.argv[2], sys.argv[3], sys.argv[split + 1:])

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parity-scale", type=float, default=0.05)
    parser.add_argument("--rss-scale", type=float, default=0.1)
    args = parser.parse_args()

    failures: list = []
    report: dict = {"parity_scale": args.parity_scale,
                    "rss_scale": args.rss_scale}

    with tempfile.TemporaryDirectory(prefix="repro-stream-smoke-") as work:
        # ---- byte parity: batch vs two window sizes, separate processes
        batch = run_child(study_argv(args.parity_scale), work)
        for window_s in (3600.0, 900.0):
            streamed = run_child(
                study_argv(args.parity_scale, stream=True, window_s=window_s),
                work)
            key = f"parity_window_{int(window_s)}"
            identical = streamed["stdout"] == batch["stdout"]
            report[key] = identical
            if not identical:
                failures.append(
                    f"--stream --window-s {window_s} stdout differs from "
                    f"batch at scale {args.parity_scale}")
        report["parity_batch_s"] = round(batch["elapsed_s"], 3)

        # ---- bounded memory: scale 0.1, RSS head-to-head
        big_batch = run_child(study_argv(args.rss_scale), work)
        big_stream = run_child(study_argv(args.rss_scale, stream=True), work)
        if big_stream["stdout"] != big_batch["stdout"]:
            failures.append(f"scale {args.rss_scale} stream stdout differs "
                            "from batch")

        batch_rss = big_batch["max_rss_kb"]
        stream_rss = big_stream["max_rss_kb"]
        report["batch_max_rss_kb"] = batch_rss
        report["stream_max_rss_kb"] = stream_rss
        report["stream_rss_ceiling_kb"] = STREAM_RSS_CEILING_KB
        if stream_rss >= batch_rss:
            failures.append(
                f"streamed peak RSS {stream_rss} KB >= batch "
                f"{batch_rss} KB — streaming is not bounding memory")
        if stream_rss > STREAM_RSS_CEILING_KB:
            failures.append(
                f"streamed peak RSS {stream_rss} KB over the fixed "
                f"ceiling {STREAM_RSS_CEILING_KB} KB")

        report["batch_s"] = round(big_batch["elapsed_s"], 3)
        report["stream_s"] = round(big_stream["elapsed_s"], 3)

    print(json.dumps(report, indent=2, sort_keys=True))

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("stream smoke OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
