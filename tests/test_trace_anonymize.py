"""Tests for prefix-preserving anonymisation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.ip import parse_ip, slash24_of
from repro.trace.anonymize import (
    PrefixPreservingAnonymizer,
    shared_prefix_bits,
    verify_prefix_preservation,
)

ips = st.integers(min_value=0, max_value=(1 << 32) - 1)


@pytest.fixture(scope="module")
def anon():
    return PrefixPreservingAnonymizer(b"test-key")


class TestSharedPrefix:
    def test_known_cases(self):
        assert shared_prefix_bits(0, 0) == 32
        assert shared_prefix_bits(0, 1) == 31
        assert shared_prefix_bits(0, 1 << 31) == 0
        assert shared_prefix_bits(parse_ip("10.0.0.1"), parse_ip("10.0.0.200")) >= 24

    @given(ips, ips)
    @settings(max_examples=100)
    def test_symmetry_and_range(self, a, b):
        k = shared_prefix_bits(a, b)
        assert k == shared_prefix_bits(b, a)
        assert 0 <= k <= 32


class TestAnonymizer:
    def test_deterministic(self, anon):
        ip = parse_ip("128.210.7.33")
        assert anon.anonymize_ip(ip) == anon.anonymize_ip(ip)

    def test_key_matters(self):
        a = PrefixPreservingAnonymizer(b"k1")
        b = PrefixPreservingAnonymizer(b"k2")
        ip = parse_ip("128.210.7.33")
        assert a.anonymize_ip(ip) != b.anonymize_ip(ip)

    def test_changes_addresses(self, anon):
        samples = [parse_ip(f"128.210.{i}.{i}") for i in range(1, 30)]
        unchanged = sum(1 for ip in samples if anon.anonymize_ip(ip) == ip)
        assert unchanged <= 1

    @given(ips, ips)
    @settings(max_examples=60, deadline=None)
    def test_prefix_preservation_property(self, a, b):
        anon = PrefixPreservingAnonymizer(b"prop-key")
        assert shared_prefix_bits(a, b) == shared_prefix_bits(
            anon.anonymize_ip(a), anon.anonymize_ip(b)
        )

    @given(st.lists(ips, min_size=2, max_size=30, unique=True))
    @settings(max_examples=30, deadline=None)
    def test_injective_on_samples(self, addresses):
        anon = PrefixPreservingAnonymizer(b"inj-key")
        mapped = [anon.anonymize_ip(ip) for ip in addresses]
        assert len(set(mapped)) == len(addresses)

    def test_verify_helper(self, anon):
        sample = [parse_ip(f"173.194.{i}.{j}") for i in (0, 1) for j in (1, 2, 100)]
        assert verify_prefix_preservation(anon, sample)

    def test_validation(self, anon):
        with pytest.raises(ValueError):
            PrefixPreservingAnonymizer(b"")
        with pytest.raises(ValueError):
            anon.anonymize_ip(-1)


class TestAnalysisSurvivesAnonymisation:
    def test_slash24_grouping_preserved(self, anon):
        a = parse_ip("173.194.5.10")
        b = parse_ip("173.194.5.200")
        c = parse_ip("173.194.6.10")
        ax, bx, cx = (anon.anonymize_ip(ip) for ip in (a, b, c))
        assert slash24_of(ax) == slash24_of(bx)
        assert slash24_of(ax) != slash24_of(cx)

    def test_session_analysis_identical(self, eu1_adsl):
        """Sessions, flow classes and per-subnet attribution are invariant
        under anonymisation (with a subnet plan mapped by the same key)."""
        from repro.core.flows import classify_flows
        from repro.core.sessions import build_sessions, flows_per_session_histogram

        anon = PrefixPreservingAnonymizer(b"study-key")
        table = eu1_adsl.dataset.table.select(slice(0, 4000))
        anonymised = anon.anonymize_table(table)
        h1 = flows_per_session_histogram(build_sessions(table, 1.0))
        h2 = flows_per_session_histogram(build_sessions(anonymised, 1.0))
        assert h1 == h2
        assert classify_flows(table).control_fraction == classify_flows(
            anonymised
        ).control_fraction
