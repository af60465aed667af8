"""Tests for server-to-data-center clustering."""

from repro.geo.cities import default_atlas
from repro.geo.coords import GeoPoint
from repro.geoloc.cbg import CbgResult
from repro.geoloc.clustering import cluster_servers
from repro.net.ip import parse_ip, slash24_of


def fake_result(city_name, jitter=0.0):
    city = default_atlas().get(city_name)
    return CbgResult(
        estimate=GeoPoint(city.point.lat + jitter, city.point.lon),
        confidence_radius_km=40.0,
        feasible=True,
        constraints_used=60,
    )


class TestClustering:
    def test_same_slash24_same_cluster(self):
        ips = [parse_ip("173.194.5.1"), parse_ip("173.194.5.200"),
               parse_ip("173.194.9.1")]
        calls = []

        def geolocate(ip):
            calls.append(ip)
            return fake_result("Amsterdam" if slash24_of(ip) == slash24_of(ips[0]) else "Milan")

        result = cluster_servers(ips, geolocate)
        # One geolocation call per /24, not per IP.
        assert len(calls) == 2
        assert result.by_ip[ips[0]] is result.by_ip[ips[1]]
        assert result.by_ip[ips[0]] is not result.by_ip[ips[2]]

    def test_same_city_slash24s_merge(self):
        ips = [parse_ip("173.194.5.1"), parse_ip("173.194.9.1")]

        def geolocate(ip):
            return fake_result("Amsterdam", jitter=0.01 if ip == ips[1] else 0.0)

        result = cluster_servers(ips, geolocate)
        assert len(result.clusters) == 1
        cluster = result.clusters[0]
        assert cluster.city.name == "Amsterdam"
        assert sorted(cluster.server_ips) == sorted(ips)
        assert len(cluster) == 2

    def test_continent_counts(self):
        ips = [parse_ip("173.194.5.1"), parse_ip("10.0.0.1"), parse_ip("11.0.0.1")]

        def geolocate(ip):
            if ip == ips[0]:
                return fake_result("Chicago")
            if ip == ips[1]:
                return fake_result("Milan")
            return fake_result("Tokyo")

        result = cluster_servers(ips, geolocate)
        counts = result.continent_counts(ips)
        assert counts == {"N. America": 1, "Europe": 1, "Others": 1}
        # IPs not in the map are skipped.
        counts2 = result.continent_counts(ips + [parse_ip("99.99.99.99")])
        assert counts2 == counts

    def test_results_by_slash24_recorded(self):
        ips = [parse_ip("173.194.5.1")]
        result = cluster_servers(ips, lambda ip: fake_result("Milan"))
        assert slash24_of(ips[0]) in result.results_by_slash24

    def test_cluster_against_real_world(self, pipeline, study_results):
        """Inference check: the partition matches the simulator's ground truth.

        Cluster labels are cosmetic (a 150 km CBG error can relabel
        Chicago as a neighbouring town), but the *grouping* must recover
        the true data-center partition: every inferred cluster should be
        dominated by one true data center (purity), and every true data
        center's servers should land in one cluster (completeness).
        """
        server_map = pipeline.server_map
        truths = [r.truth for r in study_results.values()]

        def true_dc(ip):
            for truth in truths:
                dc_id = truth.dc_of_server(ip)
                if dc_id is not None:
                    return dc_id
            return None

        # Purity: each cluster dominated by one true data center.
        pure = 0
        total = 0
        dc_to_clusters = {}
        for cluster in server_map.clusters:
            counts = {}
            for ip in cluster.server_ips:
                dc_id = true_dc(ip)
                assert dc_id is not None
                counts[dc_id] = counts.get(dc_id, 0) + 1
                dc_to_clusters.setdefault(dc_id, set()).add(cluster.cluster_id)
            majority = max(counts.values())
            pure += majority
            total += len(cluster.server_ips)
        assert total > 0
        assert pure / total > 0.95

        # Completeness: a true data center's servers land in one cluster.
        split = [dc for dc, cl in dc_to_clusters.items() if len(cl) > 1]
        assert len(split) <= max(1, len(dc_to_clusters) // 10)
