#!/usr/bin/env python3
"""What-if analysis for ISP capacity planning.

The paper's introduction: "Such insights can aid ISPs in their capacity
planning decisions ... A better understanding could enable researchers to
conduct what-if analysis, and explore how changes in video popularity
distributions, or changes to the YouTube infrastructure design can impact
ISP traffic patterns, as well as user performance."

This example runs the standard variant library against EU1-ADSL and reads
the table the way a planner would.

Run:
    python examples/whatif_capacity_planning.py
"""

from repro.spec.grid import GridAxis, GridSpec
from repro.spec.runner import render_comparison, run_grid
from repro.whatif.variants import standard_variants


def main() -> None:
    names = [variant.name for variant in standard_variants()]
    print(f"Simulating EU1-ADSL under {len(names)} infrastructure/workload variants...")
    grid = GridSpec(base="EU1-ADSL", axes=(GridAxis("variant", names),))
    report = run_grid(grid, scale=0.01, seed=7)
    print()
    print(render_comparison(report))

    base = report.row("variant=baseline")
    old = report.row("variant=old-policy")
    flash = report.row("variant=flash-crowd")
    sparse = report.row("variant=sparse-replication")

    print("\nReading the table:")
    print(f"* Rolling back to the pre-Google policy would multiply the "
          f"median serving RTT by "
          f"{old.median_serving_rtt_ms / base.median_serving_rtt_ms:.1f}x and "
          f"scatter traffic over {old.distinct_dcs} data centers instead of "
          f"{base.distinct_dcs} — the peering-capacity nightmare the "
          f"preferred-DC design avoids.")
    print(f"* A flash crowd ({'flash-crowd'}) raises overload redirects from "
          f"{base.overload_rate:.3f} to {flash.overload_rate:.3f} per request: "
          f"hot-spot shedding, not DNS, absorbs demand spikes.")
    print(f"* Thin tail replication ({'sparse-replication'}) triples content "
          f"misses ({base.miss_rate:.3f} -> {sparse.miss_rate:.3f}): first "
          f"plays of cold videos arrive from far-away origins until the "
          f"pull-through warms the edge.")
    print(f"* User impact stays bounded in every variant except the policy "
          f"rollback: startup p90 moves from {base.p90_startup_s:.2f}s to "
          f"{old.p90_startup_s:.2f}s there.")


if __name__ == "__main__":
    main()
