#!/usr/bin/env python3
"""Quickstart: simulate one monitored week and run the core analyses.

Simulates the EU1-ADSL vantage point at a small scale, collects the
Tstat-like flow log, and walks the paper's first analysis steps: flow
classification (Section VI-A), video sessions, and a first look at where
the traffic comes from.

Run:
    python examples/quickstart.py
"""

from repro.core.flows import classify_flows, detect_size_threshold
from repro.core.sessions import build_sessions, flows_per_session_histogram, multi_flow_fraction
from repro.core.summary import summarize
from repro.sim.driver import run_scenario


def main() -> None:
    print("Simulating one week at the EU1-ADSL vantage point (2% scale)...")
    result = run_scenario("EU1-ADSL", scale=0.02, seed=7)
    dataset = result.dataset

    summary = summarize(dataset)
    print(f"\ncollected {summary.flows} YouTube flows "
          f"({summary.volume_gb:.1f} GB) from {summary.num_clients} clients "
          f"to {summary.num_servers} servers")

    classes = classify_flows(dataset.table)
    print(f"\nflow classification at the 1000-byte threshold:")
    print(f"  control flows: {len(classes.control):6d} ({classes.control_fraction:.1%})")
    print(f"  video flows:   {len(classes.video):6d}")
    print(f"  data-derived threshold estimate: "
          f"{detect_size_threshold(dataset.table)} bytes")

    sessions = build_sessions(dataset.table, gap_s=1.0)
    histogram = flows_per_session_histogram(sessions)
    print(f"\n{len(sessions)} video sessions at T = 1 s:")
    for bucket in ("1", "2", "3", "4", ">9"):
        print(f"  {bucket:>2s} flows: {histogram[bucket]:.1%}")
    print(f"  sessions with redirections (>= 2 flows): "
          f"{multi_flow_fraction(sessions):.1%}")

    print("\nground-truth request routing (simulator side, for orientation):")
    for dc_id, count in result.served_dc_counts.most_common(5):
        print(f"  {dc_id:24s} served {count:6d} requests")
    print("\nNext: examples/campus_trace_study.py runs the paper's full "
          "measurement pipeline, which re-infers all of this from the trace "
          "alone.")


if __name__ == "__main__":
    main()
