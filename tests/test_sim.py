"""Tests for scenario building and the simulation driver."""

import pytest

from repro.defaults import DATASET_NAMES
from repro.net.asn import GOOGLE_ASN, YOUTUBE_EU_ASN
from repro.sim.driver import run_scenario, run_spec
from repro.sim.scenarios import PAPER_SCENARIOS, build_world
from repro.sim.seeding import derive_seed


class TestSeeding:
    def test_deterministic(self):
        assert derive_seed(1, "a", "b") == derive_seed(1, "a", "b")

    def test_labels_matter(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_requires_labels(self):
        with pytest.raises(ValueError):
            derive_seed(1)

    def test_range(self):
        s = derive_seed(123, "x")
        assert 0 <= s < (1 << 63)


class TestSpecs:
    def test_five_datasets(self):
        assert set(DATASET_NAMES) == {
            "US-Campus", "EU1-Campus", "EU1-ADSL", "EU1-FTTH", "EU2"
        }

    def test_subnet_shares_sum_to_one(self):
        for spec in PAPER_SCENARIOS.values():
            assert sum(s.client_share for s in spec.subnets) == pytest.approx(1.0)

    def test_only_us_campus_has_divergent_resolver(self):
        for name, spec in PAPER_SCENARIOS.items():
            divergent = [s for s in spec.subnets if s.divergent_resolver]
            if name == "US-Campus":
                assert [s.name for s in divergent] == ["Net-3"]
            else:
                assert not divergent

    def test_only_eu2_has_internal_dc(self):
        for name, spec in PAPER_SCENARIOS.items():
            assert spec.internal_dc == (name == "EU2")


class TestBuildWorld:
    @pytest.fixture(scope="class")
    def world(self):
        return build_world(PAPER_SCENARIOS["EU1-ADSL"], scale=0.005, seed=7)

    def test_thirty_three_google_dcs(self, world):
        assert len(world.google_dc_ids) == 33

    def test_google_prefixes_announced(self, world):
        for dc_id in world.google_dc_ids:
            dc = world.system.directory.get(dc_id)
            assert world.registry.asn_of(dc.servers[0].ip) == GOOGLE_ASN

    def test_legacy_prefixes_announced(self, world):
        legacy = world.system.directory.get("legacy-amsterdam")
        assert world.registry.asn_of(legacy.servers[0].ip) == YOUTUBE_EU_ASN

    def test_preferred_dc_is_min_rtt(self, world):
        probe = world.probe_site
        rtts = {}
        for dc_id in world.google_dc_ids:
            dc = world.system.directory.get(dc_id)
            rtts[dc_id] = world.latency.min_rtt_ms(probe, dc.server_site(dc.servers[0]))
        ranking = world.system.policy.ranking_for("EU1-ADSL/Net-1")
        assert ranking[0] == min(rtts, key=rtts.get)
        assert ranking[0] == "dc-milan"

    def test_capacities_set_on_ranked_dcs(self, world):
        for dc_id in world.google_dc_ids:
            assert world.system.directory.get(dc_id).server_capacity_per_hour is not None

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            build_world(PAPER_SCENARIOS["EU2"], scale=0.0)
        with pytest.raises(ValueError):
            build_world(PAPER_SCENARIOS["EU2"], policy_kind="magic")

    def test_eu2_internal_dc_ranks_first(self):
        world = build_world(PAPER_SCENARIOS["EU2"], scale=0.004, seed=7)
        assert world.internal_dc_id == "dc-eu2-internal"
        ranking = world.system.policy.ranking_for("EU2/Net-1")
        assert ranking[0] == "dc-eu2-internal"
        # The internal data center sits in the host ISP's AS.
        dc = world.system.directory.get("dc-eu2-internal")
        assert world.registry.asn_of(dc.servers[0].ip) == PAPER_SCENARIOS["EU2"].vantage_asn

    def test_us_campus_preferred_is_far(self):
        world = build_world(PAPER_SCENARIOS["US-Campus"], scale=0.004, seed=7)
        ranking = world.system.policy.ranking_for("US-Campus/Net-1")
        # The five geographically closest data centers are detoured away.
        assert ranking[0] not in {
            "dc-chicago", "dc-kansas-city", "dc-atlanta", "dc-ashburn", "dc-new-york"
        }
        # Net-3's divergent resolver has a different preferred data center.
        net3 = world.system.policy.ranking_for("US-Campus/Net-3")
        assert net3[0] != ranking[0]

    def test_february_2011_preferred_override(self):
        """The paper's Feb-2011 follow-up: the preferred data center is an
        assignment, and the assignment moved away from the RTT optimum."""
        from repro.sim.driver import run_spec
        from repro.sim.specs import named_scenario

        spec = named_scenario("US-Campus-Feb2011")
        result = run_spec(spec, scale=0.004, seed=7)
        world = build_world(spec, scale=0.004, seed=7)
        assert result.truth.preferred_dc == "dc-mountain-view"
        ranking = world.system.policy.ranking_for("US-Campus-Feb2011/Net-1")
        assert ranking[0] == "dc-mountain-view"
        # The assigned preferred is over 100 ms away...
        mv = world.system.directory.get("dc-mountain-view")
        rtt_mv = world.latency.min_rtt_ms(world.probe_site, mv.server_site(mv.servers[0]))
        assert rtt_mv > 100.0
        # ...while a much closer data center exists (the 2010 preferred).
        dallas = world.system.directory.get("dc-dallas")
        rtt_dallas = world.latency.min_rtt_ms(
            world.probe_site, dallas.server_site(dallas.servers[0])
        )
        assert rtt_dallas < 40.0
        # And the traffic follows the assignment, not the RTT.
        share = result.served_dc_counts["dc-mountain-view"] / result.requests
        assert share > 0.8

    def test_preferred_override_validated(self):
        import dataclasses

        spec = dataclasses.replace(
            PAPER_SCENARIOS["EU1-FTTH"], preferred_override="dc-atlantis"
        )
        with pytest.raises(ValueError):
            build_world(spec, scale=0.004, seed=7)

    def test_proportional_policy_kind(self):
        world = build_world(
            PAPER_SCENARIOS["EU1-FTTH"], scale=0.004, seed=7,
            policy_kind="proportional",
        )
        ranking = world.system.policy.ranking_for("whoever")
        sizes = [world.system.directory.get(d).size for d in ranking]
        assert sizes == sorted(sizes, reverse=True)


class TestDriver:
    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            run_scenario("Nope", scale=0.002)

    def test_cache_reuses_result(self):
        a = run_scenario("EU1-FTTH", scale=0.002, seed=9)
        b = run_scenario("EU1-FTTH", scale=0.002, seed=9)
        assert a is b

    def test_no_cache_still_deterministic(self):
        a = run_scenario("EU1-FTTH", scale=0.002, seed=9, use_cache=False)
        b = run_scenario("EU1-FTTH", scale=0.002, seed=9, use_cache=False)
        assert a is not b
        assert [
            (r.src_ip, r.dst_ip, r.num_bytes, r.t_start) for r in a.dataset.records
        ] == [(r.src_ip, r.dst_ip, r.num_bytes, r.t_start) for r in b.dataset.records]

    def test_different_seeds_differ(self):
        a = run_scenario("EU1-FTTH", scale=0.002, seed=9)
        b = run_scenario("EU1-FTTH", scale=0.002, seed=10)
        assert len(a.dataset) != len(b.dataset) or a.dataset.records != b.dataset.records

    def test_result_counters_consistent(self):
        result = run_scenario("EU1-FTTH", scale=0.002, seed=9)
        assert sum(result.served_dc_counts.values()) == result.requests
        assert sum(result.dns_dc_counts.values()) == result.requests

    def test_flows_exceed_requests(self):
        result = run_scenario("EU1-FTTH", scale=0.002, seed=9)
        assert len(result.dataset) > result.requests
