"""Focused unit tests for the geography analyses (Table III, Figures 2-3)."""

import pytest

from repro.core.geography import (
    ContinentRow,
    confidence_radius_cdfs,
    continent_table,
    render_table3,
    rtt_cdf,
    vantage_rtt_campaign,
)
from repro.geo.cities import default_atlas
from repro.geoloc.clustering import DataCenterCluster, ServerMap
from repro.geoloc.cbg import CbgResult
from repro.geoloc.probing import RttProber


class TestCampaign:
    def test_unreachable_targets_skipped(self, tiny_world):
        from repro.sim.engine import run_requests

        result = run_requests(tiny_world)
        prober = RttProber(tiny_world.latency, probes=3, seed=1)

        def site_of_ip(ip):
            # Pretend half the servers are unreachable.
            return result.world.site_of_server_ip(ip) if ip % 2 == 0 else None

        rtts = vantage_rtt_campaign(result.dataset, prober, site_of_ip)
        assert rtts
        assert all(ip % 2 == 0 for ip in rtts)
        assert all(rtt > 0 for rtt in rtts.values())

    def test_rtt_cdf_requires_measurements(self):
        with pytest.raises(ValueError):
            rtt_cdf({})


def _cluster(city_name, ips, conf=40.0):
    city = default_atlas().get(city_name)
    return DataCenterCluster(
        cluster_id=f"cluster-{city_name.lower().replace(' ', '-')}",
        city=city,
        estimate=city.point,
        confidence_radius_km=conf,
        server_ips=list(ips),
    )


def _server_map(clusters, confs=None):
    by_ip = {}
    results = {}
    for i, cluster in enumerate(clusters):
        for ip in cluster.server_ips:
            by_ip[ip] = cluster
            results[ip & 0xFFFFFF00] = CbgResult(
                estimate=cluster.estimate,
                confidence_radius_km=(confs or {}).get(cluster.cluster_id,
                                                       cluster.confidence_radius_km),
                feasible=True,
                constraints_used=50,
            )
    return ServerMap(clusters=clusters, by_ip=by_ip, results_by_slash24=results)


class TestConfidenceCdfs:
    def test_split_by_region(self):
        clusters = [
            _cluster("Chicago", [0x0A000001], conf=30.0),
            _cluster("Milan", [0x0B000001], conf=90.0),
            _cluster("Tokyo", [0x0C000001], conf=500.0),
        ]
        cdfs = confidence_radius_cdfs(_server_map(clusters))
        assert set(cdfs) == {"US", "Europe"}
        assert cdfs["US"].median == pytest.approx(30.0)
        assert cdfs["Europe"].median == pytest.approx(90.0)

    def test_empty_regions_omitted(self):
        clusters = [_cluster("Tokyo", [0x0C000001])]
        assert confidence_radius_cdfs(_server_map(clusters)) == {}


class TestContinentTable:
    def test_counts_respect_focus(self, tiny_world):
        from repro.sim.engine import run_requests

        result = run_requests(tiny_world)
        clusters = [
            _cluster("Milan", result.dataset.server_ips[:3]),
            _cluster("Chicago", result.dataset.server_ips[3:5]),
        ]
        server_map = _server_map(clusters)
        focus = {result.dataset.name: result.dataset.server_ips[:4]}
        rows = continent_table([result.dataset], server_map, focus)
        assert len(rows) == 1
        assert rows[0].counts["Europe"] == 3
        assert rows[0].counts["N. America"] == 1
        assert rows[0].total == 4

    def test_render(self):
        rows = [ContinentRow(name="X", counts={"N. America": 1, "Europe": 2, "Others": 0})]
        text = render_table3(rows)
        assert "TABLE III" in text and "X" in text
