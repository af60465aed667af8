"""Tests for the peering-traffic analysis."""

import pytest

from repro.core.peering import AsTraffic, analyze_peering
from repro.net.asn import GOOGLE_ASN, YOUTUBE_EU_ASN


class TestAsTraffic:
    def test_aggregates(self):
        row = AsTraffic(asn=1, name="x", hourly_bytes=[100, 300, 200])
        assert row.total_bytes == 600
        assert row.peak_hour_bytes == 300

    def test_p95_is_billing_percentile(self):
        # 100 hours: 95 quiet at ~1 GB, 5 bursty at 100 GB.
        hours = [1_000_000_000] * 95 + [100_000_000_000] * 5
        row = AsTraffic(asn=1, name="x", hourly_bytes=hours)
        # The p95 hour is still a quiet one: bursts above the 95th sample
        # are free under burstable billing.
        assert row.p95_mbps() == pytest.approx(1e9 * 8 / 3600 / 1e6, rel=0.01)

    def test_p95_requires_hours(self):
        with pytest.raises(ValueError):
            AsTraffic(asn=1, name="x", hourly_bytes=[]).p95_mbps()


class TestAnalyzePeering:
    def test_google_dominates_everywhere(self, study_results):
        for name, result in study_results.items():
            report = analyze_peering(result.dataset, result.world.registry)
            assert report.per_as[0].asn == GOOGLE_ASN, name
            google_share = report.per_as[0].total_bytes / report.total_bytes
            if name == "EU2":
                assert google_share < 0.8
            else:
                assert google_share > 0.95

    def test_eu2_on_net_share(self, eu2):
        """The in-ISP data center keeps ~40 % of bytes off the peering edge."""
        report = analyze_peering(eu2.dataset, eu2.world.registry)
        assert 0.2 < report.on_net_fraction < 0.6
        host_row = report.row(eu2.dataset.vantage.asn)
        assert host_row.total_bytes == report.on_net_bytes

    def test_other_vantages_all_off_net(self, eu1_adsl):
        report = analyze_peering(eu1_adsl.dataset, eu1_adsl.world.registry)
        assert report.on_net_fraction == 0.0
        with pytest.raises(KeyError):
            report.row(eu1_adsl.dataset.vantage.asn)

    def test_legacy_as_present_but_small(self, eu1_adsl):
        report = analyze_peering(eu1_adsl.dataset, eu1_adsl.world.registry)
        legacy = report.row(YOUTUBE_EU_ASN)
        assert 0 < legacy.total_bytes < 0.05 * report.total_bytes

    def test_diurnal_visible_in_billing_gap(self, eu1_adsl):
        """Peak hour well above the p95 billing rate implies burstiness the
        ISP does not pay for — the diurnal pattern in money terms."""
        report = analyze_peering(eu1_adsl.dataset, eu1_adsl.world.registry)
        google = report.row(GOOGLE_ASN)
        peak_mbps = google.peak_hour_bytes * 8 / 3600 / 1e6
        assert peak_mbps > google.p95_mbps()

    def test_render(self, eu2):
        report = analyze_peering(eu2.dataset, eu2.world.registry)
        text = report.render()
        assert "PEERING INGRESS" in text
        assert "AS15169" in text
