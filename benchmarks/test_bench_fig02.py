"""Figure 2 — CDF of RTT to YouTube content servers from each vantage point."""

from repro.core.geography import vantage_rtt_campaign
from repro.geoloc.probing import RttProber


def test_bench_fig02(benchmark, results, pipe, save_artifact):
    dataset = results["EU1-ADSL"].dataset
    latency = results["EU1-ADSL"].world.latency
    site_of_ip = pipe.site_of_ip

    def compute():
        prober = RttProber(latency, probes=6, seed=123)
        return vantage_rtt_campaign(dataset, prober, site_of_ip)

    benchmark(compute)

    lines = []
    for name in results:
        cdf = pipe.rtt_cdf(name)
        lines.append(cdf.render(f"RTT ms — {name}"))
    save_artifact("fig02_rtt_cdfs", "\n".join(lines))

    # European vantage points see servers far too close for a California-
    # only deployment (the Maxmind refutation).
    for name in ("EU1-Campus", "EU1-ADSL", "EU1-FTTH", "EU2"):
        assert pipe.rtt_cdf(name).fraction_below(40.0) > 0.2, name
    # And every vantage point also reaches far-away servers.
    for name in results:
        assert pipe.rtt_cdf(name).max > 100.0
