"""Tests for data centers and the directory."""

import pytest

from repro.cdn.datacenter import DataCenterDirectory, build_datacenter
from repro.geo.cities import default_atlas
from repro.net.asn import GOOGLE_ASN
from repro.net.ip import Ipv4Allocator, parse_network, slash24_of
from repro.net.latency import AccessTechnology


@pytest.fixture
def allocator():
    return Ipv4Allocator((parse_network("173.194.0.0/16"),))


@pytest.fixture
def dc(allocator):
    return build_datacenter(
        dc_id="dc-test",
        city=default_atlas().get("Amsterdam"),
        num_servers=60,
        allocator=allocator,
        asn=GOOGLE_ASN,
        server_capacity_per_hour=50.0,
    )


class TestBuild:
    def test_fleet_size(self, dc):
        assert dc.size == 60
        assert len({s.ip for s in dc.servers}) == 60

    def test_indices_sequential(self, dc):
        assert [s.index for s in dc.servers] == list(range(60))

    def test_single_slash24_for_small_fleet(self, dc):
        assert len(dc.networks) == 1
        assert all(slash24_of(s.ip) == dc.networks[0].network for s in dc.servers)

    def test_network_bounds_skipped(self, dc):
        net = dc.networks[0]
        ips = {s.ip for s in dc.servers}
        assert net.first not in ips  # .0
        assert net.last not in ips  # .255

    def test_large_fleet_spans_slash24s(self, allocator):
        big = build_datacenter(
            "dc-big", default_atlas().get("Chicago"), 300, allocator, GOOGLE_ASN
        )
        assert len(big.networks) == 2
        assert big.size == 300

    def test_zero_servers_rejected(self, allocator):
        with pytest.raises(ValueError):
            build_datacenter("dc-0", default_atlas().get("Chicago"), 0, allocator, GOOGLE_ASN)

    def test_server_site(self, dc):
        site = dc.server_site(dc.servers[0])
        assert site.access is AccessTechnology.DATACENTER
        assert site.group == "dc-test"
        assert site.point == dc.city.point

    def test_server_site_rejects_foreign_server(self, dc, allocator):
        other = build_datacenter(
            "dc-other", default_atlas().get("Chicago"), 4, allocator, GOOGLE_ASN
        )
        with pytest.raises(ValueError):
            dc.server_site(other.servers[0])

    def test_str(self, dc):
        assert "Amsterdam" in str(dc)


class TestDirectory:
    def test_lookup(self, dc):
        directory = DataCenterDirectory([dc])
        server = dc.servers[5]
        assert directory.dc_of_server(server.ip) is dc
        assert directory.server_at(server.ip) is server
        assert directory.get("dc-test") is dc

    def test_unknown(self, dc):
        directory = DataCenterDirectory([dc])
        assert directory.dc_of_server(123) is None
        assert directory.server_at(123) is None
        with pytest.raises(KeyError):
            directory.get("dc-none")

    def test_duplicate_id_rejected(self, dc):
        with pytest.raises(ValueError):
            DataCenterDirectory([dc, dc])

    def test_iteration_and_ids(self, dc, allocator):
        other = build_datacenter(
            "dc-other", default_atlas().get("Chicago"), 4, allocator, GOOGLE_ASN
        )
        directory = DataCenterDirectory([dc, other])
        assert len(directory) == 2
        assert directory.ids == ["dc-test", "dc-other"]
        assert list(directory)[0] is dc
