"""Tests for the physical sanity checker."""

import pytest

from repro.geo.cities import default_atlas
from repro.geo.coords import GeoPoint
from repro.geoloc.geodb import build_reference_geodb
from repro.geoloc.sanity import audit_claims, check_claim
from repro.net.ip import format_ip


class TestCheckClaim:
    def test_possible_claim_passes(self):
        turin = default_atlas().get("Turin").point
        milan = default_atlas().get("Milan").point
        # ~125 km needs >= 1.25 ms; 10 ms is fine.
        assert check_claim(turin, milan, 10.0) is None

    def test_impossible_claim_flagged(self):
        turin = default_atlas().get("Turin").point
        mountain_view = default_atlas().get("Mountain View").point
        violation = check_claim(turin, mountain_view, 15.0, target="x")
        assert violation is not None
        assert violation.required_rtt_ms > 90.0
        assert violation.impossibility_factor > 5.0
        assert violation.target == "x"

    def test_slack_loosens_the_bound(self):
        turin = default_atlas().get("Turin").point
        paris = default_atlas().get("Paris").point  # ~580 km -> >= 5.8 ms
        assert check_claim(turin, paris, 5.0) is not None
        assert check_claim(turin, paris, 5.0, slack=0.5) is None

    def test_slack_validated(self):
        p = GeoPoint(0.0, 0.0)
        with pytest.raises(ValueError):
            check_claim(p, p, 1.0, slack=0.0)


class TestAudit:
    def test_sorted_by_impossibility(self):
        turin = default_atlas().get("Turin").point
        mv = default_atlas().get("Mountain View").point
        claims = {"a": mv, "b": mv, "c": default_atlas().get("Milan").point}
        rtts = {"a": 5.0, "b": 50.0, "c": 10.0}
        violations = audit_claims(turin, claims, rtts)
        assert [v.target for v in violations] == ["a", "b"]

    def test_refutes_geodb_on_simulated_traces(self, pipeline, study_results):
        """The Section V argument end to end: the database's Mountain View
        claim is impossible for a large share of servers seen from Europe."""
        name = "EU1-ADSL"
        registry = study_results[name].world.registry
        geodb = build_reference_geodb(registry)
        rtts = pipeline.rtt_campaigns[name]
        claims = {}
        for ip in pipeline.focus_ips[name]:
            city = geodb.lookup(ip)
            if city is not None:
                claims[format_ip(ip)] = city.point
        rtts_by_label = {format_ip(ip): rtt for ip, rtt in rtts.items()}
        vantage = study_results[name].dataset.vantage.city.point
        audited = [target for target in claims if target in rtts_by_label]
        violations = audit_claims(vantage, claims, rtts_by_label)
        assert len(violations) / len(audited) > 0.5
