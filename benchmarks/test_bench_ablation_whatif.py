"""A4 — what-if ablations over the design choices DESIGN.md calls out.

Runs the standard variant library against EU1-ADSL and checks that each
design knob moves exactly the metric it should: capacity moves overload
redirects, replication moves misses, the featured share moves hot-spot
overflow, and the selection policy moves everything.
"""

import pytest

from repro.spec.grid import GridAxis, GridSpec
from repro.spec.runner import render_comparison, run_grid
from repro.whatif.variants import standard_variants


def variant_grid(variants):
    """EU1-ADSL crossed with one axis of variant names."""
    return GridSpec(
        base="EU1-ADSL", axes=(GridAxis("variant", [v.name for v in variants]),)
    )


@pytest.fixture(scope="module")
def report():
    return run_grid(variant_grid(standard_variants()), scale=0.008, seed=7)


def test_bench_ablation_whatif(benchmark, report, save_artifact):
    def compute():
        return run_grid(variant_grid(standard_variants()[:2]), scale=0.004, seed=7)

    benchmark.pedantic(compute, rounds=1, iterations=1)
    save_artifact("ablation_whatif", render_comparison(report))

    def row(name):
        return report.row(f"variant={name}")

    base = row("baseline")

    # Selection policy: locality collapses, user RTT explodes.
    old = row("old-policy")
    assert old.preferred_share < 0.3
    assert old.median_serving_rtt_ms > 3.0 * base.median_serving_rtt_ms

    # Capacity: more capacity, less overload shedding — and vice versa.
    assert row("double-capacity").overload_rate <= base.overload_rate
    assert row("half-capacity").overload_rate >= base.overload_rate

    # Flash crowd: overload redirection absorbs the spike.
    assert row("flash-crowd").overload_rate > 3.0 * max(base.overload_rate, 1e-4)

    # Replication: sparse tails mean more first-access misses.
    assert row("sparse-replication").miss_rate > 1.5 * base.miss_rate

    # DNS spill: turning it off raises the preferred share.
    assert row("no-spill").preferred_share > base.preferred_share

    # Popularity shape barely moves user performance (caching absorbs it).
    flat = row("flat-popularity")
    assert abs(flat.median_startup_s - base.median_startup_s) < 0.1
