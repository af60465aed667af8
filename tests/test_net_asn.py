"""Tests for the AS registry (the simulated whois)."""

import pytest

from repro.net.asn import AsRegistry, GOOGLE_ASN, YOUTUBE_EU_ASN
from repro.net.ip import parse_ip, parse_network


@pytest.fixture
def registry():
    reg = AsRegistry()
    reg.register_as(GOOGLE_ASN, "Google Inc.")
    reg.register_as(YOUTUBE_EU_ASN, "YouTube-EU")
    reg.announce(parse_network("173.194.0.0/16"), GOOGLE_ASN)
    reg.announce(parse_network("173.194.55.0/24"), YOUTUBE_EU_ASN)
    return reg


class TestRegistry:
    def test_whois_basic(self, registry):
        system = registry.whois(parse_ip("173.194.1.1"))
        assert system is not None
        assert system.asn == GOOGLE_ASN
        assert system.name == "Google Inc."

    def test_longest_prefix_match_wins(self, registry):
        system = registry.whois(parse_ip("173.194.55.7"))
        assert system.asn == YOUTUBE_EU_ASN

    def test_unannounced_returns_none(self, registry):
        assert registry.whois(parse_ip("8.8.8.8")) is None
        assert registry.asn_of(parse_ip("8.8.8.8")) is None

    def test_announce_requires_registration(self):
        reg = AsRegistry()
        with pytest.raises(KeyError):
            reg.announce(parse_network("10.0.0.0/8"), 64512)

    def test_conflicting_announcement_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.announce(parse_network("173.194.0.0/16"), YOUTUBE_EU_ASN)

    def test_re_register_same_name_ok(self, registry):
        system = registry.register_as(GOOGLE_ASN, "Google Inc.")
        assert system.asn == GOOGLE_ASN

    def test_re_register_different_name_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.register_as(GOOGLE_ASN, "Someone Else")

    def test_announced_networks(self, registry):
        nets = registry.announced_networks(GOOGLE_ASN)
        assert [str(n) for n in nets] == ["173.194.0.0/16"]

    def test_describe(self, registry):
        text = registry.describe(parse_ip("173.194.1.1"))
        assert "AS15169" in text and "Google" in text
        assert "no origin AS" in registry.describe(parse_ip("9.9.9.9"))
