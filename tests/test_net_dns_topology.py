"""Tests for DNS machinery and edge topology."""

import pytest

from repro.geo.cities import default_atlas
from repro.net.dns import Answer, AuthoritativeServer, LocalResolver
from repro.net.ip import parse_ip, parse_network
from repro.net.latency import AccessTechnology
from repro.net.topology import Subnet, VantagePoint


class StubMapper:
    """NameMapper returning a per-query incrementing address."""

    def __init__(self):
        self.calls = 0

    def map_name(self, hostname, resolver_id, now_s):
        self.calls += 1
        return Answer(ip=parse_ip("10.0.0.1") + self.calls, ttl_s=30.0)


@pytest.fixture
def resolver():
    return LocalResolver(
        resolver_id="test/net-1",
        authoritative=AuthoritativeServer(mapper=StubMapper()),
    )


class TestDns:
    def test_query_delegates_to_policy(self, resolver):
        answer = resolver.query("v1.lscache.youtube.sim", now_s=0.0)
        assert answer.ip == parse_ip("10.0.0.2")
        assert resolver.authoritative.queries == 1

    def test_no_cache_by_default(self, resolver):
        a1 = resolver.query("v1.lscache.youtube.sim", 0.0)
        a2 = resolver.query("v1.lscache.youtube.sim", 1.0)
        assert a1.ip != a2.ip
        assert resolver.misses == 2

    def test_cache_hit_within_ttl(self):
        resolver = LocalResolver(
            resolver_id="x",
            authoritative=AuthoritativeServer(mapper=StubMapper()),
            cache_enabled=True,
        )
        a1 = resolver.query("h", 0.0)
        a2 = resolver.query("h", 10.0)
        assert a1.ip == a2.ip
        assert resolver.hits == 1

    def test_cache_expires_after_ttl(self):
        resolver = LocalResolver(
            resolver_id="x",
            authoritative=AuthoritativeServer(mapper=StubMapper()),
            cache_enabled=True,
        )
        a1 = resolver.query("h", 0.0)
        a2 = resolver.query("h", 31.0)
        assert a1.ip != a2.ip


def _vantage(shares=(0.6, 0.4)):
    atlas = default_atlas()
    auth = AuthoritativeServer(mapper=StubMapper())
    subnets = []
    for i, share in enumerate(shares):
        subnets.append(
            Subnet(
                name=f"Net-{i + 1}",
                network=parse_network(f"128.210.{i * 64}.0/18"),
                resolver=LocalResolver(resolver_id=f"vp/Net-{i + 1}", authoritative=auth),
                client_share=share,
            )
        )
    return VantagePoint(
        name="Test-VP",
        city=atlas.get("Turin"),
        access=AccessTechnology.CAMPUS,
        egress_ms=4.0,
        subnets=subnets,
        asn=137,
    )


class TestTopology:
    def test_subnet_shares_validated(self):
        with pytest.raises(ValueError):
            _vantage(shares=(0.6, 0.6))

    def test_subnet_share_bounds(self):
        auth = AuthoritativeServer(mapper=StubMapper())
        with pytest.raises(ValueError):
            Subnet(
                name="bad",
                network=parse_network("10.0.0.0/24"),
                resolver=LocalResolver(resolver_id="r", authoritative=auth),
                client_share=0.0,
            )

    def test_subnet_of(self):
        vp = _vantage()
        ip_in_first = parse_ip("128.210.0.5")
        ip_in_second = parse_ip("128.210.64.5")
        assert vp.subnet_of(ip_in_first).name == "Net-1"
        assert vp.subnet_of(ip_in_second).name == "Net-2"
        assert vp.subnet_of(parse_ip("1.2.3.4")) is None

    def test_resolver_for(self):
        vp = _vantage()
        resolver = vp.resolver_for(parse_ip("128.210.64.5"))
        assert resolver.resolver_id == "vp/Net-2"
        with pytest.raises(LookupError):
            vp.resolver_for(parse_ip("1.2.3.4"))

    def test_sites_share_routing_group(self):
        vp = _vantage()
        probe = vp.probe_site
        client = vp.client_site(parse_ip("128.210.0.5"))
        assert probe.routing_group == client.routing_group == "vp:Test-VP"
        assert probe.extra_ms == client.extra_ms == 4.0
