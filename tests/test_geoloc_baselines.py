"""Tests for the geolocation baselines (geo database, reverse DNS) and probing."""

import pytest

from repro.geo.cities import default_atlas
from repro.geo.coords import GeoPoint, haversine_km
from repro.geoloc.geodb import GeoDatabase, build_reference_geodb
from repro.geoloc.probing import RttProber
from repro.geoloc.rdns import CITY_AIRPORT_CODES, ReverseDnsTable, build_reverse_dns
from repro.net.asn import AsRegistry, GOOGLE_ASN, YOUTUBE_EU_ASN
from repro.net.ip import parse_ip, parse_network
from repro.net.latency import AccessTechnology, LatencyModel, Site


class TestGeoDatabase:
    @pytest.fixture
    def registry(self):
        reg = AsRegistry()
        reg.register_as(GOOGLE_ASN, "Google Inc.")
        reg.register_as(YOUTUBE_EU_ASN, "YouTube-EU")
        reg.announce(parse_network("173.194.0.0/16"), GOOGLE_ASN)
        reg.announce(parse_network("208.65.152.0/22"), YOUTUBE_EU_ASN)
        return reg

    def test_corporate_space_pinned_to_hq(self, registry):
        db = build_reference_geodb(registry)
        city = db.lookup(parse_ip("173.194.8.9"))
        assert city is not None
        assert city.name == "Mountain View"
        city2 = db.lookup(parse_ip("208.65.153.1"))
        assert city2.name == "Mountain View"

    def test_uncovered_space(self, registry):
        db = build_reference_geodb(registry)
        assert db.lookup(parse_ip("8.8.4.4")) is None

    def test_longest_prefix_match(self):
        atlas = default_atlas()
        db = GeoDatabase()
        db.add(parse_network("10.0.0.0/8"), atlas.get("Chicago"))
        db.add(parse_network("10.1.0.0/16"), atlas.get("Milan"))
        assert db.lookup(parse_ip("10.1.2.3")).name == "Milan"
        assert db.lookup(parse_ip("10.2.2.3")).name == "Chicago"

    def test_len(self, registry):
        db = build_reference_geodb(registry)
        assert len(db) == 2

    def test_database_is_wrong_about_distance(self, registry):
        """The paper's point: the database puts EU servers 9000 km away."""
        db = build_reference_geodb(registry)
        claimed = db.lookup(parse_ip("173.194.100.1"))
        amsterdam = default_atlas().get("Amsterdam")
        assert haversine_km(claimed.point, amsterdam.point) > 8000

    def test_accurate_for_isp_space_wrong_for_corporate(self, registry, tiny_world):
        """Databases get access ISPs right and corporate internals wrong —
        the asymmetry the paper describes."""
        db = build_reference_geodb(registry)
        vantage = tiny_world.vantage
        for subnet in vantage.subnets:
            db.add(subnet.network, vantage.city)
        client_ip = next(iter(tiny_world.population)).ip
        claimed = db.lookup(client_ip)
        assert claimed is not None
        assert haversine_km(claimed.point, vantage.city.point) < 50.0
        # Meanwhile Google-space claims remain continental-scale wrong for
        # any server not actually at headquarters.
        milan_dc = tiny_world.system.directory.get("dc-milan")
        server_claim = db.lookup(milan_dc.servers[0].ip)
        assert haversine_km(server_claim.point, milan_dc.city.point) > 8000


class TestReverseDns:
    def test_empty_table_is_nxdomain(self):
        table = ReverseDnsTable()
        assert table.lookup(parse_ip("173.194.0.1")) is None

    def test_legacy_names_carry_airport_codes(self, tiny_world):
        legacy = [
            dc for dc in tiny_world.system.directory
            if dc.dc_id.startswith("legacy-")
        ]
        table = build_reverse_dns(legacy)
        assert len(table) == sum(dc.size for dc in legacy)
        sample_dc = legacy[0]
        hostname = table.lookup(sample_dc.servers[0].ip)
        assert hostname is not None
        assert f".lscache-{CITY_AIRPORT_CODES[sample_dc.city.name]}." in hostname

    def test_google_servers_have_no_ptr(self, tiny_world):
        legacy = [
            dc for dc in tiny_world.system.directory
            if dc.dc_id.startswith("legacy-")
        ]
        table = build_reverse_dns(legacy)
        google_dc = tiny_world.system.directory.get(tiny_world.google_dc_ids[0])
        assert table.lookup(google_dc.servers[0].ip) is None


class TestProber:
    def test_min_filter_above_floor(self):
        latency = LatencyModel(seed=5)
        a = Site("a", GeoPoint(45.0, 7.0), AccessTechnology.CAMPUS)
        b = Site("b", GeoPoint(48.8, 2.3), AccessTechnology.DATACENTER)
        prober = RttProber(latency, probes=8, seed=1)
        floor = latency.min_rtt_ms(a, b)
        measured = prober.measure_ms(a, b)
        assert floor < measured < floor + 5.0

    def test_campaign_and_matrix(self):
        latency = LatencyModel(seed=6)
        a = Site("a", GeoPoint(45.0, 7.0), AccessTechnology.CAMPUS)
        targets = {
            "x": Site("x", GeoPoint(48.8, 2.3), AccessTechnology.DATACENTER),
            "y": Site("y", GeoPoint(52.4, 4.9), AccessTechnology.DATACENTER),
        }
        prober = RttProber(latency, probes=4, seed=2)
        campaign = prober.campaign(a, targets)
        assert set(campaign) == {"x", "y"}
        matrix = prober.matrix({"a": a}, targets)
        assert set(matrix) == {("a", "x"), ("a", "y")}
        assert prober.measurements == 4

    def test_probe_validation(self):
        with pytest.raises(ValueError):
            RttProber(LatencyModel(seed=0), probes=0)
