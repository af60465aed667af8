"""Figure 9 — hourly fraction of video flows to non-preferred data centers."""

from repro.core.nonpreferred import hourly_nonpreferred_cdf


def test_bench_fig09(benchmark, results, pipe, save_artifact):
    name = "EU2"
    table = pipe.focus_tables[name]
    report = pipe.preferred_reports[name]
    num_hours = results[name].dataset.num_hours

    def compute():
        return hourly_nonpreferred_cdf(table, report, pipe.server_map, num_hours)

    benchmark(compute)

    lines = []
    for ds_name in results:
        cdf = pipe.fig9_cdf(ds_name)
        overall = pipe.nonpreferred_fraction(ds_name)
        lines.append(cdf.render(f"hourly non-preferred fraction — {ds_name}"))
        lines.append(f"{ds_name}: overall non-preferred = {overall:.3f}")
    save_artifact("fig09_hourly_nonpreferred", "\n".join(lines))

    # Paper: 5-15 % for US/EU1, > 55 % for EU2; EU2 varies the most.
    for ds_name in ("US-Campus", "EU1-Campus", "EU1-ADSL", "EU1-FTTH"):
        assert 0.03 < pipe.nonpreferred_fraction(ds_name) < 0.20, ds_name
    assert pipe.nonpreferred_fraction("EU2") > 0.5
    assert pipe.fig9_cdf("EU2").median > 0.4
    assert pipe.fig9_cdf("EU1-ADSL").quantile(0.9) < 0.3
