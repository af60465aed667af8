"""Unit tests for the analysis modules on hand-built synthetic inputs.

These tests bypass the simulator: they build tiny flow sets and fake
server maps so each analysis rule is checked in isolation.
"""

import pytest

from repro.core.loadbalance import analyze_load_balance
from repro.core.nonpreferred import (
    SessionPattern,
    dns_vs_redirection_shares,
    hourly_nonpreferred_cdf,
    nonpreferred_fraction,
    one_flow_breakdown,
    two_flow_breakdown,
    video_flow_preference,
)
from repro.core.preferred import (
    DataCenterView,
    PreferredDcReport,
)
from repro.core.sessions import build_sessions
from repro.core.summary import DatasetSummary, render_table1, summarize
from repro.geo.cities import default_atlas
from repro.geoloc.clustering import DataCenterCluster, ServerMap
from repro.trace.records import FlowRecord

#: Synthetic server addresses: 100s = preferred DC, 200s = other DC.
PREF_IP = 100
OTHER_IP = 200


def make_server_map():
    atlas = default_atlas()
    pref = DataCenterCluster(
        cluster_id="cluster-pref",
        city=atlas.get("Milan"),
        estimate=atlas.get("Milan").point,
        confidence_radius_km=40.0,
        server_ips=[PREF_IP, PREF_IP + 1],
    )
    other = DataCenterCluster(
        cluster_id="cluster-other",
        city=atlas.get("Chicago"),
        estimate=atlas.get("Chicago").point,
        confidence_radius_km=40.0,
        server_ips=[OTHER_IP, OTHER_IP + 1],
    )
    by_ip = {ip: pref for ip in pref.server_ips}
    by_ip.update({ip: other for ip in other.server_ips})
    return ServerMap(clusters=[pref, other], by_ip=by_ip, results_by_slash24={})


def make_report(server_map):
    views = [
        DataCenterView(cluster=server_map.clusters[0], num_bytes=900, num_flows=9,
                       min_rtt_ms=10.0, distance_km=100.0),
        DataCenterView(cluster=server_map.clusters[1], num_bytes=100, num_flows=1,
                       min_rtt_ms=90.0, distance_km=7000.0),
    ]
    return PreferredDcReport(
        dataset_name="synthetic", views=views,
        preferred_id="cluster-pref", total_bytes=1000,
    )


def vflow(dst, src=1, vid="V" * 11, t0=0.0, nbytes=50_000, dur=5.0):
    return FlowRecord(src_ip=src, dst_ip=dst, num_bytes=nbytes,
                      t_start=t0, t_end=t0 + dur, video_id=vid, resolution="360p")


def cflow(dst, src=1, vid="V" * 11, t0=0.0):
    return FlowRecord(src_ip=src, dst_ip=dst, num_bytes=500,
                      t_start=t0, t_end=t0 + 0.1, video_id=vid, resolution="360p")


@pytest.fixture
def server_map():
    return make_server_map()


@pytest.fixture
def report(server_map):
    return make_report(server_map)


class TestVideoFlowPreference:
    def test_split(self, server_map, report):
        records = [vflow(PREF_IP), vflow(OTHER_IP), cflow(PREF_IP), vflow(999)]
        split = video_flow_preference(records, report, server_map)
        assert len(split[True]) == 1
        assert len(split[False]) == 1  # control + unknown dropped

    def test_fraction(self, server_map, report):
        records = [vflow(PREF_IP), vflow(PREF_IP), vflow(OTHER_IP), vflow(OTHER_IP)]
        assert nonpreferred_fraction(records, report, server_map) == pytest.approx(0.5)

    def test_fraction_empty_raises(self, server_map, report):
        with pytest.raises(ValueError):
            nonpreferred_fraction([cflow(PREF_IP)], report, server_map)


class TestHourlyCdf:
    def test_cdf_values(self, server_map, report):
        records = []
        # Hour 0: 10 preferred; hour 1: 5 preferred + 5 non-preferred.
        for i in range(10):
            records.append(vflow(PREF_IP, t0=10.0 + i))
        for i in range(5):
            records.append(vflow(PREF_IP, t0=3700.0 + i))
            records.append(vflow(OTHER_IP, t0=3700.0 + i))
        cdf = hourly_nonpreferred_cdf(records, report, server_map, num_hours=2,
                                      min_flows_per_hour=5)
        assert len(cdf) == 2
        assert cdf.min == pytest.approx(0.0)
        assert cdf.max == pytest.approx(0.5)

    def test_thin_hours_skipped(self, server_map, report):
        records = [vflow(OTHER_IP, t0=10.0)]
        with pytest.raises(ValueError):
            hourly_nonpreferred_cdf(records, report, server_map, num_hours=1,
                                    min_flows_per_hour=5)


class TestSessionPatterns:
    def test_one_flow_breakdown(self, server_map, report):
        records = [
            vflow(PREF_IP, src=1, t0=0.0),
            vflow(OTHER_IP, src=2, t0=0.0),
            cflow(PREF_IP, src=3, t0=0.0), vflow(PREF_IP, src=3, t0=0.2),
        ]
        sessions = build_sessions(records, 1.0)
        breakdown = one_flow_breakdown(sessions, report, server_map)
        assert breakdown.total_sessions == 3
        assert breakdown.preferred == 1
        assert breakdown.nonpreferred == 1
        assert breakdown.one_flow_fraction == pytest.approx(2 / 3)

    def test_two_flow_patterns(self, server_map, report):
        records = [
            cflow(PREF_IP, src=1), vflow(PREF_IP, src=1, t0=0.2),
            cflow(PREF_IP, src=2), vflow(OTHER_IP, src=2, t0=0.2),
            cflow(OTHER_IP, src=3), vflow(PREF_IP, src=3, t0=0.2),
            cflow(OTHER_IP, src=4), vflow(OTHER_IP, src=4, t0=0.2),
        ]
        sessions = build_sessions(records, 1.0)
        patterns = two_flow_breakdown(sessions, report, server_map)
        assert patterns[SessionPattern.PREFERRED_PREFERRED] == pytest.approx(0.25)
        assert patterns[SessionPattern.PREFERRED_NONPREFERRED] == pytest.approx(0.25)
        assert patterns[SessionPattern.NONPREFERRED_PREFERRED] == pytest.approx(0.25)
        assert patterns[SessionPattern.NONPREFERRED_NONPREFERRED] == pytest.approx(0.25)

    def test_two_flow_requires_sessions(self, server_map, report):
        sessions = build_sessions([vflow(PREF_IP)], 1.0)
        with pytest.raises(ValueError):
            two_flow_breakdown(sessions, report, server_map)

    def test_dns_vs_redirection(self, server_map, report):
        records = [
            # DNS-caused: first flow already non-preferred.
            cflow(OTHER_IP, src=1), vflow(OTHER_IP, src=1, t0=0.2),
            # Redirection-caused: preferred first, video from non-preferred.
            cflow(PREF_IP, src=2), vflow(OTHER_IP, src=2, t0=0.2),
            cflow(PREF_IP, src=3), vflow(OTHER_IP, src=3, t0=0.2),
        ]
        sessions = build_sessions(records, 1.0)
        shares = dns_vs_redirection_shares(sessions, report, server_map)
        assert shares["dns"] == pytest.approx(1 / 3)
        assert shares["redirection"] == pytest.approx(2 / 3)

    def test_dns_vs_redirection_no_nonpreferred(self, server_map, report):
        sessions = build_sessions([vflow(PREF_IP)], 1.0)
        shares = dns_vs_redirection_shares(sessions, report, server_map)
        assert shares == {"dns": 0.0, "redirection": 0.0}


class TestPreferredSelection:
    def test_dominant_provider_wins(self, server_map):
        # analyze_preferred needs a Dataset; exercise _pick via report math.
        report = make_report(server_map)
        assert report.preferred_id == "cluster-pref"
        assert report.byte_share("cluster-pref") == pytest.approx(0.9)

    def test_eu2_rule_smallest_rtt_among_majors(self, server_map):
        views = [
            DataCenterView(cluster=server_map.clusters[1], num_bytes=550,
                           num_flows=55, min_rtt_ms=25.0, distance_km=500.0),
            DataCenterView(cluster=server_map.clusters[0], num_bytes=450,
                           num_flows=45, min_rtt_ms=8.0, distance_km=5.0),
        ]
        from repro.core.preferred import _pick_preferred

        assert _pick_preferred(views, 1000) == "cluster-pref"

    def test_cumulative_curves(self, report):
        by_rtt = report.cumulative_by_rtt()
        assert by_rtt.xs == [10.0, 90.0]
        assert by_rtt.ys[-1] == pytest.approx(1.0)
        by_distance = report.cumulative_by_distance()
        assert by_distance.xs == [100.0, 7000.0]

    def test_closest_k_share(self, report):
        assert report.closest_k_share(1) == pytest.approx(0.9)
        assert report.closest_k_share(2) == pytest.approx(1.0)

    def test_view_lookup(self, report):
        assert report.view("cluster-other").num_bytes == 100
        with pytest.raises(KeyError):
            report.view("cluster-none")


class TestLoadBalance:
    def test_series_and_correlation(self, server_map, report):
        records = []
        # Quiet hour 0: 4 local flows.  Busy hour 1: 20 flows, half local.
        for i in range(4):
            records.append(vflow(PREF_IP, t0=10.0 + i))
        for i in range(10):
            records.append(vflow(PREF_IP, t0=3700.0 + i))
            records.append(vflow(OTHER_IP, t0=3700.0 + i))
        lb = analyze_load_balance(records, report, server_map, num_hours=2)
        assert lb.flows_per_hour.ys == [4.0, 20.0]
        assert lb.local_fraction.ys[0] == pytest.approx(1.0)
        assert lb.local_fraction.ys[1] == pytest.approx(0.5)
        quiet, busy = lb.night_day_split()
        assert quiet == pytest.approx(1.0)
        assert busy == pytest.approx(0.5)

    def test_nan_for_empty_hours(self, server_map, report):
        import math

        records = [vflow(PREF_IP, t0=10.0)]
        lb = analyze_load_balance(records, report, server_map, num_hours=3)
        assert math.isnan(lb.local_fraction.ys[2])


class TestSummary:
    def test_summary_row(self, tiny_world):
        from repro.sim.engine import run_requests

        result = run_requests(tiny_world)
        summary = summarize(result.dataset)
        assert summary.flows == len(result.dataset)
        assert summary.num_clients == len(result.dataset.client_ips)
        assert summary.volume_gb > 0
        assert summary.volume_bytes > 1000 * summary.flows

    def test_render_table1(self):
        rows = [DatasetSummary("X", 10, 2_000_000_000, 3, 4)]
        text = render_table1(rows)
        assert "X" in text and "2.00" in text and "TABLE I" in text
