"""Figure 12 — per-subnet non-preferred shares at US-Campus (Net-3 bias)."""

from repro.core.subnets import most_biased_subnet, subnet_shares


def test_bench_fig12(benchmark, results, pipe, save_artifact):
    name = "US-Campus"
    dataset = results[name].dataset
    report = pipe.preferred_reports[name]
    table = pipe.focus_tables[name]

    def compute():
        return subnet_shares(dataset, report, pipe.server_map, table=table)

    shares = benchmark(compute)

    lines = [
        f"{s.subnet_name}: all={s.all_share:.3f} "
        f"non-preferred={s.nonpreferred_share:.3f} bias={s.bias:.1f}"
        for s in shares
    ]
    save_artifact("fig12_subnet_bias", "\n".join(lines))

    net3 = next(s for s in shares if s.subnet_name == "Net-3")
    # Paper: ~4 % of flows, ~50 % of non-preferred accesses.
    assert net3.all_share < 0.10
    assert net3.nonpreferred_share > 0.30
    assert most_biased_subnet(shares).subnet_name == "Net-3"
    for s in shares:
        if s.subnet_name != "Net-3":
            assert s.bias < 1.5, s.subnet_name
