"""Figure 4 — CDF of YouTube flow sizes (the 1000-byte control/video kink)."""

from repro.core.flows import detect_size_threshold, flow_size_cdf


def test_bench_fig04(benchmark, results, pipe, save_artifact):
    table = results["US-Campus"].dataset.table

    def compute():
        return flow_size_cdf(table)

    benchmark(compute)

    lines = []
    for name in results:
        cdf = pipe.flow_size_cdf(name)
        lines.append(cdf.render(f"flow bytes — {name}"))
    save_artifact("fig04_flow_sizes", "\n".join(lines))

    for name in results:
        cdf = pipe.flow_size_cdf(name)
        below = cdf.fraction_below(1000)
        valley = cdf.fraction_below(19_000) - below
        assert 0.05 < below < 0.45, name
        assert valley < 0.02, name
    # The kink is recoverable from the data alone.
    detected = detect_size_threshold(table)
    assert 900 <= detected <= 25_000
