"""Figure 11 — EU2's DNS-level load balancing over the week."""

from repro.core.loadbalance import analyze_load_balance


def test_bench_fig11(benchmark, results, pipe, save_artifact):
    name = "EU2"
    table = pipe.focus_tables[name]
    report = pipe.preferred_reports[name]
    num_hours = results[name].dataset.num_hours

    def compute():
        return analyze_load_balance(table, report, pipe.server_map, num_hours)

    lb = benchmark(compute)

    quiet, busy = lb.night_day_split()
    correlation = lb.correlation()
    text = "\n".join(
        [
            lb.local_fraction.render(),
            lb.flows_per_hour.render(),
            f"quiet-hour local fraction: {quiet:.3f}",
            f"busy-hour local fraction:  {busy:.3f}",
            f"load/local-fraction correlation: {correlation:.3f}",
        ]
    )
    save_artifact("fig11_eu2_load_balance", text)

    # Night: the in-ISP data center absorbs (nearly) everything;
    # day: it saturates and DNS sheds to the Google data center.
    assert quiet > 0.6
    assert busy < 0.45
    assert correlation < -0.6
    # Control: EU1-ADSL shows no such anti-correlation.
    control = pipe.load_balance("EU1-ADSL")
    q2, b2 = control.night_day_split()
    assert abs(q2 - b2) < 0.15
