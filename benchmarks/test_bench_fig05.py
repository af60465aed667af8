"""Figure 5 — flows per session vs. the session gap T (US-Campus),
plus the A3 ablation extending the sweep to all five datasets."""

from repro.core.sessions import gap_sensitivity


def _render(histograms):
    lines = []
    for gap in sorted(histograms):
        h = histograms[gap]
        cells = " ".join(f"{label}:{h[label]:.3f}" for label in ("1", "2", "3", ">9"))
        lines.append(f"T={gap:>5.0f}s  {cells}")
    return "\n".join(lines)


def test_bench_fig05(benchmark, results, pipe, save_artifact):
    table = pipe.focus_tables["US-Campus"]

    def compute():
        return gap_sensitivity(table)

    histograms = benchmark(compute)
    save_artifact("fig05_gap_sensitivity", _render(histograms))

    singles = {gap: h["1"] for gap, h in histograms.items()}
    assert abs(singles[1.0] - singles[10.0]) < 0.01  # T <= 10 s stable
    assert singles[300.0] < singles[10.0] - 0.01     # big T merges interactions


def test_bench_fig05_all_datasets_ablation(benchmark, results, pipe, save_artifact):
    """A3: the T-sweep behaves the same at every vantage point."""
    sweep = benchmark.pedantic(
        lambda: {name: gap_sensitivity(pipe.focus_tables[name]) for name in results},
        rounds=1,
        iterations=1,
    )
    lines = []
    for name in results:
        histograms = sweep[name]
        singles = {gap: h["1"] for gap, h in histograms.items()}
        lines.append(f"== {name} ==")
        lines.append(_render(histograms))
        assert abs(singles[1.0] - singles[10.0]) < 0.015, name
        assert singles[300.0] <= singles[1.0], name
    save_artifact("fig05_ablation_all_datasets", "\n".join(lines))
