"""End-to-end reproduction checks: every paper shape target, one test each.

These tests run the paper's full methodology over the shared simulated week
and assert the qualitative findings of every table and figure.  They are
the "does the reproduction reproduce" layer; EXPERIMENTS.md records the
measured numbers next to the paper's.
"""


import pytest

from repro.core.asmap import AS_GROUPS
from repro.core.hotspots import exactly_once_fraction, nonpreferred_requests_per_video
from repro.core.nonpreferred import SessionPattern
from repro.core.sessions import multi_flow_fraction
from repro.core.subnets import most_biased_subnet
from repro.geo.coords import haversine_km
from repro.net.latency import LatencyModel

EU1_DATASETS = ("EU1-Campus", "EU1-ADSL", "EU1-FTTH")
NON_EU2 = ("US-Campus",) + EU1_DATASETS
ALL = NON_EU2 + ("EU2",)


class TestTable1:
    def test_all_rows_populated(self, pipeline):
        for name in ALL:
            summary = pipeline.summaries[name]
            assert summary.flows > 500
            assert summary.num_servers > 50
            assert summary.num_clients > 20
            assert summary.volume_gb > 0.5

    def test_relative_volumes(self, pipeline):
        # US-Campus and EU1-ADSL are the big traces; FTTH the smallest.
        flows = {n: pipeline.summaries[n].flows for n in ALL}
        assert flows["US-Campus"] > 3 * flows["EU1-FTTH"]
        assert flows["EU1-ADSL"] > 3 * flows["EU1-FTTH"]


class TestTable2:
    def test_google_dominates_bytes(self, pipeline):
        for name in NON_EU2:
            breakdown = pipeline.as_breakdowns[name]
            assert breakdown.byte_fractions["google"] > 0.95
            assert breakdown.byte_fractions["same_as"] == 0.0

    def test_legacy_many_servers_few_bytes(self, pipeline):
        for name in ALL:
            breakdown = pipeline.as_breakdowns[name]
            srv, byt = breakdown.share("youtube_eu")
            assert srv > 0.05, name
            assert byt < 0.2, name
            assert srv > byt, name

    def test_eu2_same_as_column(self, pipeline):
        breakdown = pipeline.as_breakdowns["EU2"]
        # The in-ISP data center carries a large byte share (paper: 38.6 %).
        assert 0.2 < breakdown.byte_fractions["same_as"] < 0.6
        for name in NON_EU2:
            assert pipeline.as_breakdowns[name].byte_fractions["same_as"] == 0.0

    def test_fractions_sum_to_one(self, pipeline):
        for name in ALL:
            breakdown = pipeline.as_breakdowns[name]
            assert sum(breakdown.server_fractions[g] for g in AS_GROUPS) == pytest.approx(1.0)
            assert sum(breakdown.byte_fractions[g] for g in AS_GROUPS) == pytest.approx(1.0)


class TestTable3:
    def test_home_continent_dominates(self, pipeline):
        rows = {r.name: r for r in pipeline.table3_rows}
        assert rows["US-Campus"].counts["N. America"] > rows["US-Campus"].counts["Europe"]
        for name in EU1_DATASETS + ("EU2",):
            assert rows[name].counts["Europe"] > rows[name].counts["N. America"]

    def test_foreign_servers_present(self, pipeline):
        """Paper: 'at least 10% of the accessed servers are in a different
        continent' — for the big traces."""
        rows = {r.name: r for r in pipeline.table3_rows}
        for name in ("US-Campus", "EU1-ADSL", "EU2"):
            row = rows[name]
            home = "N. America" if name == "US-Campus" else "Europe"
            foreign = row.total - row.counts[home]
            assert foreign / row.total > 0.05, name


class TestFigure2:
    def test_eu_vantage_sees_fast_servers(self, pipeline):
        """Maxmind's all-in-California claim is physically impossible."""
        transatlantic_floor = LatencyModel.ideal_rtt_ms(haversine_km(
            pipeline.dataset("EU1-Campus").vantage.city.point,
            __import__("repro.geo.cities", fromlist=["default_atlas"]).default_atlas()
            .get("Mountain View").point,
        ))
        for name in EU1_DATASETS:
            cdf = pipeline.rtt_cdf(name)
            assert cdf.fraction_below(transatlantic_floor * 0.5) > 0.2, name

    def test_rtt_spread_over_continents(self, pipeline):
        for name in ALL:
            cdf = pipeline.rtt_cdf(name)
            assert cdf.max > 100.0
            assert cdf.min < 60.0


class TestFigure3:
    def test_confidence_radii_small(self, pipeline):
        cdfs = pipeline.fig3_cdfs
        assert set(cdfs) == {"US", "Europe"}
        for region, cdf in cdfs.items():
            assert cdf.median < 150.0, region
            assert cdf.quantile(0.9) < 500.0, region


class TestFigure4:
    def test_bimodal_sizes_with_kink_at_1000(self, pipeline):
        for name in ALL:
            cdf = pipeline.flow_size_cdf(name)
            below_kink = cdf.fraction_below(1000)
            # A visible control-flow step...
            assert 0.05 < below_kink < 0.45, name
            # ...and almost nothing between 1 kB and 20 kB (the valley).
            valley = cdf.fraction_below(19_000) - cdf.fraction_below(1_000)
            assert valley < 0.02, name


class TestFigure5:
    def test_gap_sensitivity(self, pipeline):
        histograms = pipeline.gap_sensitivity("US-Campus")
        singles = {gap: h["1"] for gap, h in histograms.items()}
        # T <= 10 s stable...
        assert singles[1.0] == pytest.approx(singles[5.0], abs=0.01)
        assert singles[1.0] == pytest.approx(singles[10.0], abs=0.01)
        # ...larger T merges user interactions into sessions.
        assert singles[60.0] < singles[10.0] - 0.005
        assert singles[300.0] < singles[60.0]


class TestFigure6:
    def test_single_flow_share(self, pipeline):
        """Paper: 72.5-80.5 % of sessions consist of a single flow."""
        for name in ALL:
            histogram = pipeline.session_histogram(name)
            assert 0.68 < histogram["1"] < 0.90, name

    def test_redirection_not_insignificant(self, pipeline):
        for name in ALL:
            fraction = multi_flow_fraction(pipeline.sessions[name])
            assert fraction > 0.10, name


class TestFigure7:
    def test_preferred_dc_share(self, pipeline):
        """One data center provides > 85 % of bytes (except EU2)."""
        for name in NON_EU2:
            report = pipeline.preferred_reports[name]
            assert report.byte_share(report.preferred_id) > 0.8, name

    def test_preferred_is_min_rtt(self, pipeline):
        for name in ALL:
            report = pipeline.preferred_reports[name]
            major = [v for v in report.views
                     if v.num_bytes / report.total_bytes > 0.05]
            assert report.preferred.min_rtt_ms == min(v.min_rtt_ms for v in major), name

    def test_eu2_two_majors(self, pipeline):
        report = pipeline.preferred_reports["EU2"]
        shares = sorted(
            (v.num_bytes / report.total_bytes for v in report.views), reverse=True
        )
        assert shares[0] + shares[1] > 0.9
        assert shares[0] < 0.85  # no single dominant data center


class TestFigure8:
    def test_us_campus_ignores_geography(self, pipeline):
        """Paper: the five closest data centers provide < 2 % of bytes."""
        report = pipeline.preferred_reports["US-Campus"]
        assert report.closest_k_share(5) < 0.05

    def test_eu1_geography_aligned(self, pipeline):
        report = pipeline.preferred_reports["EU1-ADSL"]
        assert report.closest_k_share(5) > 0.8


class TestFigure9:
    def test_nonpreferred_fractions(self, pipeline):
        """Paper: 5-15 % for US/EU1, > 55 % for EU2."""
        for name in NON_EU2:
            fraction = pipeline.nonpreferred_fraction(name)
            assert 0.03 < fraction < 0.20, (name, fraction)
        assert pipeline.nonpreferred_fraction("EU2") > 0.5

    def test_eu2_hourly_variation_widest(self, pipeline):
        eu2 = pipeline.fig9_cdf("EU2")
        assert eu2.median > 0.4
        eu1 = pipeline.fig9_cdf("EU1-ADSL")
        assert eu1.quantile(0.9) < 0.3


class TestFigure10:
    def test_one_flow_mostly_preferred(self, pipeline):
        for name in NON_EU2:
            breakdown = pipeline.one_flow_breakdown(name)
            assert breakdown.preferred_fraction > 0.6, name
            assert breakdown.nonpreferred_fraction < 0.15, name

    def test_eu2_one_flow_mostly_nonpreferred(self, pipeline):
        breakdown = pipeline.one_flow_breakdown("EU2")
        assert breakdown.nonpreferred_fraction > 0.3
        assert breakdown.nonpreferred_fraction > breakdown.preferred_fraction * 0.8

    def test_eu1_redirection_dominates_two_flow(self, pipeline):
        for name in EU1_DATASETS:
            patterns = pipeline.two_flow_breakdown(name)
            pn = patterns[SessionPattern.PREFERRED_NONPREFERRED]
            nn = patterns[SessionPattern.NONPREFERRED_NONPREFERRED]
            assert pn > nn, name

    def test_eu2_dns_dominates_two_flow(self, pipeline):
        patterns = pipeline.two_flow_breakdown("EU2")
        nn = patterns[SessionPattern.NONPREFERRED_NONPREFERRED]
        pn = patterns[SessionPattern.PREFERRED_NONPREFERRED]
        assert nn > pn

    def test_cause_attribution(self, pipeline):
        # EU2's non-preferred flows are overwhelmingly DNS-caused; in the
        # EU1 traces redirection carries a large share alongside DNS.
        assert pipeline.dns_vs_redirection("EU2")["dns"] > 0.6
        assert pipeline.dns_vs_redirection("EU1-ADSL")["redirection"] > 0.35


class TestFigure11:
    def test_eu2_load_balance_signature(self, pipeline):
        lb = pipeline.load_balance("EU2")
        quiet, busy = lb.night_day_split()
        assert quiet > 0.6
        assert busy < 0.45
        assert lb.correlation() < -0.6

    def test_eu1_no_such_signature(self, pipeline):
        lb = pipeline.load_balance("EU1-ADSL")
        quiet, busy = lb.night_day_split()
        assert abs(quiet - busy) < 0.15


class TestFigure12:
    def test_net3_bias(self, pipeline):
        """Paper: Net-3 has ~4 % of flows but ~50 % of non-preferred."""
        shares = pipeline.subnet_shares("US-Campus")
        net3 = next(s for s in shares if s.subnet_name == "Net-3")
        assert net3.all_share < 0.10
        assert net3.nonpreferred_share > 0.30
        assert most_biased_subnet(shares).subnet_name == "Net-3"

    def test_other_subnets_unbiased(self, pipeline):
        shares = pipeline.subnet_shares("US-Campus")
        for s in shares:
            if s.subnet_name != "Net-3":
                assert s.bias < 1.5, s.subnet_name


class TestFigure13:
    def test_mass_at_exactly_once(self, pipeline):
        """Paper: ~85 % of non-preferred videos downloaded exactly once."""
        for name in ("EU1-Campus", "EU1-ADSL"):
            counts = nonpreferred_requests_per_video(
                pipeline.focus_tables[name],
                pipeline.preferred_reports[name],
                pipeline.server_map,
            )
            assert exactly_once_fraction(counts) > 0.6, name

    def test_heavy_tail(self, pipeline):
        cdf = pipeline.fig13_cdf("EU1-ADSL")
        assert cdf.max > 10 * cdf.median


class TestFigure14:
    def test_hot_videos_are_daily_spikes(self, pipeline):
        videos = pipeline.hot_videos("EU1-ADSL")
        assert len(videos) == 4
        spiky = [v for v in videos if v.spike_concentration() > 0.8]
        assert len(spiky) >= 3

    def test_nonpreferred_concentrated_in_spike(self, pipeline):
        for video in pipeline.hot_videos("EU1-ADSL", top_k=2):
            total_np = sum(video.nonpreferred_requests.ys)
            assert total_np > 0
            peak = video.peak_hour()
            window = [
                y for x, y in zip(video.nonpreferred_requests.xs,
                                  video.nonpreferred_requests.ys)
                if abs(x - peak) <= 14
            ]
            assert sum(window) > 0.7 * total_np


class TestFigure15:
    def test_max_far_above_average(self, pipeline):
        """Paper: one server answers 650 requests while the average is 50."""
        load = pipeline.server_load("EU1-ADSL")
        assert load.peak_ratio() > 4.0


class TestFigure16:
    def test_hot_server_redirects_during_spike(self, pipeline):
        report = pipeline.hot_server("EU1-ADSL")
        assert report.total_sessions() > 50
        redirected = sum(report.first_preferred_rest_not.ys)
        assert redirected > 0
        # Redirections cluster where the feature-day peak is (weighted by
        # session count: stray off-peak redirects exist but carry little).
        peak_hour = report.first_preferred_rest_not.xs[
            report.first_preferred_rest_not.ys.index(
                report.first_preferred_rest_not.max_y()
            )
        ]
        within_day = sum(
            y for x, y in zip(report.first_preferred_rest_not.xs,
                              report.first_preferred_rest_not.ys)
            if abs(x - peak_hour) <= 24
        )
        assert within_day / redirected > 0.6
