"""Tests for IPv4 primitives."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.ip import (
    IPv4Network,
    Ipv4Allocator,
    format_ip,
    parse_ip,
    parse_network,
    slash24_of,
)


class TestParseFormat:
    def test_parse_known(self):
        assert parse_ip("0.0.0.0") == 0
        assert parse_ip("255.255.255.255") == (1 << 32) - 1
        assert parse_ip("173.194.0.1") == (173 << 24) | (194 << 16) | 1

    def test_format_known(self):
        assert format_ip(0) == "0.0.0.0"
        assert format_ip((1 << 32) - 1) == "255.255.255.255"

    @given(st.integers(min_value=0, max_value=(1 << 32) - 1))
    @settings(max_examples=200)
    def test_roundtrip(self, ip):
        assert parse_ip(format_ip(ip)) == ip

    @pytest.mark.parametrize(
        "bad", ["1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d", "01.2.3.4", "", "1..2.3"]
    )
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_ip(bad)

    def test_format_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            format_ip(-1)
        with pytest.raises(ValueError):
            format_ip(1 << 32)

    def test_slash24(self):
        assert slash24_of(parse_ip("10.1.2.3")) == parse_ip("10.1.2.0")
        assert slash24_of(parse_ip("10.1.2.0")) == parse_ip("10.1.2.0")


class TestNetwork:
    def test_basic_properties(self):
        net = parse_network("192.168.4.0/22")
        assert net.num_addresses == 1024
        assert format_ip(net.first) == "192.168.4.0"
        assert format_ip(net.last) == "192.168.7.255"

    def test_contains(self):
        net = parse_network("10.0.0.0/8")
        assert parse_ip("10.200.3.4") in net
        assert parse_ip("11.0.0.0") not in net

    def test_rejects_host_bits(self):
        with pytest.raises(ValueError):
            IPv4Network(parse_ip("10.0.0.1"), 24)

    def test_rejects_bad_prefix_length(self):
        with pytest.raises(ValueError):
            IPv4Network(0, 33)

    def test_subnets(self):
        net = parse_network("10.0.0.0/23")
        subs = list(net.subnets(24))
        assert len(subs) == 2
        assert str(subs[0]) == "10.0.0.0/24"
        assert str(subs[1]) == "10.0.1.0/24"

    def test_subnets_shorter_prefix_rejected(self):
        with pytest.raises(ValueError):
            list(parse_network("10.0.0.0/24").subnets(23))

    def test_hosts_count(self):
        net = parse_network("10.0.0.0/30")
        assert len(list(net.hosts())) == 4

    def test_parse_network_malformed(self):
        with pytest.raises(ValueError):
            parse_network("10.0.0.0")


class TestAllocator:

    def test_network_allocation_aligned(self):
        alloc = Ipv4Allocator((parse_network("10.0.0.0/16"),))
        alloc.allocate_network(30)  # misalign the cursor
        net = alloc.allocate_network(24)
        assert net.network % 256 == 0
        assert net.prefix_len == 24

    def test_network_allocation_distinct(self):
        alloc = Ipv4Allocator((parse_network("10.0.0.0/16"),))
        nets = [alloc.allocate_network(24) for _ in range(256)]
        assert len({n.network for n in nets}) == 256
        with pytest.raises(RuntimeError):
            alloc.allocate_network(24)

    def test_spans_multiple_pools(self):
        alloc = Ipv4Allocator(
            (parse_network("10.0.0.0/24"), parse_network("10.0.2.0/24"))
        )
        nets = [alloc.allocate_network(24) for _ in range(2)]
        assert str(nets[0]) == "10.0.0.0/24"
        assert str(nets[1]) == "10.0.2.0/24"

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            Ipv4Allocator(())

    def test_oversized_request(self):
        alloc = Ipv4Allocator((parse_network("10.0.0.0/24"),))
        with pytest.raises(RuntimeError):
            alloc.allocate_network(16)
