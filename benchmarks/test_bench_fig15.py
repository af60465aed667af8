"""Figure 15 — average vs. maximum per-server load in the preferred DC."""

from repro.core.hotspots import preferred_server_load


def test_bench_fig15(benchmark, results, pipe, save_artifact):
    name = "EU1-ADSL"
    table = pipe.focus_tables[name]
    report = pipe.preferred_reports[name]
    num_hours = results[name].dataset.num_hours

    def compute():
        return preferred_server_load(table, report, pipe.server_map, num_hours)

    load = benchmark(compute)

    text = "\n".join(
        [
            load.avg_per_hour.render(),
            load.max_per_hour.render(),
            f"peak ratio (max of max / mean of avg): {load.peak_ratio():.1f}",
        ]
    )
    save_artifact("fig15_server_load", text)

    # Paper: max ~650 vs avg ~50 — an order of magnitude apart.
    assert load.peak_ratio() > 4.0
    assert load.max_per_hour.max_y() > 2 * max(load.avg_per_hour.ys)
