"""Tests for the extension features: fragmentation, LRU caches,
the geographic policy, and the >2-flow session analysis."""

import random

import pytest

from repro.cdn.catalog import Resolution, VideoCatalog
from repro.cdn.store import ContentPlacement
from repro.sim.driver import run_spec
from repro.sim.engine import run_requests
from repro.sim.scenarios import PAPER_SCENARIOS, build_world


class TestFragmentation:
    def test_fragments_share_session(self, tiny_world):
        world = tiny_world
        client = next(iter(world.population))
        site = world.vantage.client_site(client.ip)
        resolver = world.vantage.resolver_for(client.ip)
        video = world.system.catalog.by_rank(0)
        rng = random.Random(3)
        fragmented = None
        for _ in range(300):
            outcome = world.system.handle_request(
                client_ip=client.ip, client_site=site, resolver=resolver,
                video=video, resolution=Resolution.R360, t_s=50.0, rng=rng,
                watch_fraction=1.0,
            )
            videos = [e for e in outcome.events if e.kind == "video"]
            if len(videos) == 2:
                fragmented = videos
                break
        assert fragmented is not None, "fragmentation never triggered in 300 tries"
        first, second = fragmented
        assert first.server_ip == second.server_ip
        assert 0.0 < second.t_start - first.t_end < 1.0  # same session at T=1s
        total = first.num_bytes + second.num_bytes
        assert total == pytest.approx(video.size_bytes(Resolution.R360), rel=0.01)

    def test_multi_flow_sessions_exist_in_traces(self, pipeline):
        for name in pipeline.dataset_names:
            breakdown = pipeline.multi_flow_breakdown(name)
            assert breakdown.sessions > 0, name
            assert 0.005 < breakdown.share_of_all_sessions < 0.12, name

    def test_multi_flow_trends_match_two_flow(self, pipeline):
        """Paper: '>2-flow sessions show similar trends to 2-flow sessions'."""
        eu1 = pipeline.multi_flow_breakdown("EU1-ADSL")
        assert eu1.first_preferred_rest_mixed >= eu1.first_nonpreferred
        eu2 = pipeline.multi_flow_breakdown("EU2")
        assert eu2.first_nonpreferred > eu2.first_preferred_rest_mixed

    def test_min_flows_validated(self, pipeline):
        with pytest.raises(ValueError):
            pipeline.multi_flow_breakdown("EU2", min_flows=1)


class TestLruCache:
    @pytest.fixture
    def capped_placement(self):
        catalog = VideoCatalog(size=2000, seed=4)
        placement = ContentPlacement(
            catalog, [f"dc-{i}" for i in range(4)],
            replicated_mass=0.7, regional_presence_prob=0.0, cache_capacity=3,
        )
        return catalog, placement

    def _tail_videos(self, catalog, placement, dc_id, count):
        featured = {v.video_id for v in catalog.featured_videos}
        picked = []
        for rank in range(len(catalog) - 1, 0, -1):
            video = catalog.by_rank(rank)
            if video.video_id in featured:
                continue
            if not placement.is_resident(dc_id, video):
                picked.append(video)
            if len(picked) == count:
                return picked
        raise AssertionError("not enough cold tail videos")

    def test_eviction_beyond_capacity(self, capped_placement):
        catalog, placement = capped_placement
        videos = self._tail_videos(catalog, placement, "dc-0", 5)
        for video in videos:
            placement.pull_through("dc-0", video)
        assert placement.evictions == 2
        # The two oldest pulls were evicted...
        assert not placement.is_resident("dc-0", videos[0])
        assert not placement.is_resident("dc-0", videos[1])
        # ...the three newest remain.
        for video in videos[2:]:
            assert placement.is_resident("dc-0", video)

    def test_origin_copies_never_evicted(self, capped_placement):
        catalog, placement = capped_placement
        videos = self._tail_videos(catalog, placement, "dc-0", 4)
        for video in videos:
            placement.pull_through("dc-0", video)
            origins = placement.origins(video)
            for origin in origins:
                assert placement.is_resident(origin, video)

    def test_capacity_validated(self):
        catalog = VideoCatalog(size=100, seed=5)
        with pytest.raises(ValueError):
            ContentPlacement(catalog, ["dc-0"], cache_capacity=0)

    def test_tiny_cache_scenario_raises_misses(self):
        import dataclasses

        spec = PAPER_SCENARIOS["EU1-FTTH"]
        base = run_spec(spec, scale=0.006, seed=7)
        capped_world = build_world(
            dataclasses.replace(spec, cache_capacity=10, regional_presence_prob=0.2),
            scale=0.006, seed=7,
        )
        capped = run_requests(capped_world)
        assert capped.cause_counts.get("miss", 0) > base.cause_counts.get("miss", 0)
        assert capped_world.system.placement.evictions > 0


class TestDnsVariants:
    def test_preferred_outage_drains_dns(self):
        from repro.spec.grid import GridAxis, GridSpec
        from repro.spec.runner import run_grid

        grid = GridSpec(
            base="EU1-ADSL",
            axes=(GridAxis("variant", ("baseline", "preferred-outage")),),
        )
        report = run_grid(grid, scale=0.005, seed=7)
        baseline = report.row("variant=baseline")
        outage = report.row("variant=preferred-outage")
        # DNS stops handing out the preferred data center...
        assert outage.preferred_share < 0.05
        # ...but traffic concentrates one rank down, not everywhere.
        assert outage.top_dc_share > 0.8
        # Users pay a modest RTT penalty (next-ranked DC is still close).
        assert outage.median_serving_rtt_ms > baseline.median_serving_rtt_ms
        assert outage.median_serving_rtt_ms < 3 * baseline.median_serving_rtt_ms

    def test_sticky_dns_blunts_load_shaping(self):
        """Resolver caching reuses answers the assignment budget never saw,
        so EU2's internal data center takes more than its cap intends."""
        import dataclasses

        from repro.sim.driver import run_spec

        spec = PAPER_SCENARIOS["EU2"]
        base_world = build_world(spec, scale=0.008, seed=7)
        base = run_spec(spec, scale=0.008, seed=7)
        sticky_world = build_world(
            dataclasses.replace(spec, dns_cache_enabled=True, dns_ttl_s=1800.0),
            scale=0.008, seed=7,
        )
        sticky = run_requests(sticky_world)
        internal = base_world.internal_dc_id
        base_local = base.served_dc_counts.get(internal, 0) / base.requests
        sticky_local = sticky.served_dc_counts.get(internal, 0) / sticky.requests
        assert sticky_local > base_local + 0.03
        # And the resolvers actually cached.
        resolver = sticky_world.vantage.subnets[0].resolver
        assert resolver.hits > 0

    def test_default_resolvers_do_not_cache(self, tiny_world):
        resolver = tiny_world.vantage.subnets[0].resolver
        assert resolver.hits == 0


class TestGeographicPolicy:
    def test_geo_policy_ranks_by_distance(self):
        world = build_world(
            PAPER_SCENARIOS["US-Campus"], scale=0.004, seed=7,
            policy_kind="geographic",
        )
        ranking = world.system.policy.ranking_for("US-Campus/Net-1")
        # Geography puts Chicago first for West Lafayette...
        assert ranking[0] == "dc-chicago"
        rtt_world = build_world(PAPER_SCENARIOS["US-Campus"], scale=0.004, seed=7)
        # ...which is exactly what the RTT-based policy does NOT do.
        assert rtt_world.system.policy.ranking_for("US-Campus/Net-1")[0] != "dc-chicago"

    def test_geo_policy_hurts_us_campus_rtt(self):
        from repro.spec.grid import GridAxis, GridSpec
        from repro.spec.runner import run_grid

        grid = GridSpec(
            base="US-Campus", axes=(GridAxis("variant", ("baseline", "geo-policy")),)
        )
        report = run_grid(grid, scale=0.005, seed=7)
        geo = report.row("variant=geo-policy")
        # Serving from the detoured-but-close Chicago raises the median RTT.
        assert geo.median_serving_rtt_ms > report.row("variant=baseline").median_serving_rtt_ms
