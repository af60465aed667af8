#!/usr/bin/env python3
"""Sharing a trace: anonymise it, then show the analyses still work.

The paper's datasets were never released — flow logs identify customers.
Prefix-preserving anonymisation is the standard answer: a keyed bijection
on addresses that keeps every prefix relationship (and therefore every
analysis in this package) intact.  This example anonymises a simulated
trace and re-runs the session analysis on the anonymised log to show the
results are bit-identical.

Run:
    python examples/share_a_trace.py
"""

import tempfile
from pathlib import Path

from repro.core.flows import classify_flows
from repro.core.sessions import build_sessions, flows_per_session_histogram
from repro.net.ip import format_ip
from repro.sim.driver import run_scenario
from repro.trace.anonymize import PrefixPreservingAnonymizer
from repro.trace.logio import read_flow_log, write_flow_log
from repro.trace.anonymize import verify_prefix_preservation


def main() -> None:
    print("Simulating a small EU1-FTTH week...")
    result = run_scenario("EU1-FTTH", scale=0.01, seed=7)
    table = result.dataset.table

    workdir = Path(tempfile.mkdtemp(prefix="repro-share-"))
    raw_path = workdir / "raw_flows.tsv"
    shared_path = workdir / "shared_flows.tsv"
    write_flow_log(table, raw_path)
    print(f"raw trace: {raw_path} ({len(table)} flows)")

    anonymizer = PrefixPreservingAnonymizer(b"keep-this-key-safe")
    write_flow_log(anonymizer.anonymize_table(table), shared_path)
    print(f"shareable trace: {shared_path}")

    cols = table.columns()
    sample = cols.src_ip[:10].tolist() + cols.dst_ip[:10].tolist()
    print(f"prefix preservation audited on a sample: "
          f"{verify_prefix_preservation(anonymizer, sample)}")

    original = read_flow_log(raw_path)
    shared = read_flow_log(shared_path)
    h_orig = flows_per_session_histogram(build_sessions(original, 1.0))
    h_shared = flows_per_session_histogram(build_sessions(shared, 1.0))
    c_orig = classify_flows(original).control_fraction
    c_shared = classify_flows(shared).control_fraction
    print("\nanalysis on raw vs anonymised trace:")
    print(f"  single-flow session share: {h_orig['1']:.4f} vs {h_shared['1']:.4f}")
    print(f"  control-flow fraction:     {c_orig:.4f} vs {c_shared:.4f}")
    assert h_orig == h_shared and c_orig == c_shared
    print("  -> identical, as prefix preservation guarantees")

    print("\nWhat the recipient cannot do: recover client identities.")
    print(f"  first client, raw:        {format_ip(int(original.columns().src_ip[0]))}")
    print(f"  first client, shared:     {format_ip(int(shared.columns().src_ip[0]))}")


if __name__ == "__main__":
    main()
