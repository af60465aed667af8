"""Cross-module invariants, exercised with hypothesis where it pays.

These are the properties the analyses silently rely on; if a refactor
breaks one, figures go subtly wrong long before a shape assertion fires.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdn.catalog import VideoCatalog
from repro.cdn.datacenter import DataCenterDirectory, build_datacenter
from repro.cdn.selection import PreferredDcPolicy
from repro.cdn.store import ContentPlacement
from repro.geo.cities import default_atlas
from repro.net.asn import GOOGLE_ASN
from repro.net.ip import Ipv4Allocator, parse_network


def make_directory(num_dcs=3, servers_each=8):
    atlas = default_atlas()
    cities = ["Milan", "Zurich", "Paris", "Chicago", "Tokyo"][:num_dcs]
    alloc = Ipv4Allocator((parse_network("173.194.0.0/16"),))
    dcs = [
        build_datacenter(f"dc-{c.lower()}", atlas.get(c), servers_each, alloc, GOOGLE_ASN)
        for c in cities
    ]
    return DataCenterDirectory(dcs)


class TestSelectionBudgetInvariant:
    @given(
        st.integers(min_value=1, max_value=30),   # capacity
        st.integers(min_value=1, max_value=120),  # queries in the hour
        st.integers(min_value=0, max_value=50),   # seed
    )
    @settings(max_examples=40, deadline=None)
    def test_capped_dc_never_exceeds_budget(self, cap, queries, seed):
        directory = make_directory()
        policy = PreferredDcPolicy(
            directory,
            rankings={"r": ["dc-milan", "dc-zurich", "dc-paris"]},
            dns_capacity_per_hour={"dc-milan": float(cap)},
            seed=seed,
        )
        picks = [policy.select_dc("r", 500.0) for _ in range(queries)]
        assert picks.count("dc-milan") <= cap

    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=20, deadline=None)
    def test_uncapped_policy_is_pure_preferred(self, seed):
        directory = make_directory()
        policy = PreferredDcPolicy(
            directory,
            rankings={"r": ["dc-milan", "dc-zurich", "dc-paris"]},
            spill_probability=0.0,
            seed=seed,
        )
        assert all(policy.select_dc("r", 0.0) == "dc-milan" for _ in range(30))


class TestPlacementInvariants:
    @given(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=9))
    @settings(max_examples=30, deadline=None)
    def test_holders_superset_of_origins_without_eviction(self, pulls, video_offset):
        catalog = VideoCatalog(size=600, seed=3)
        dc_ids = [f"dc-{i}" for i in range(6)]
        placement = ContentPlacement(
            catalog, dc_ids, replicated_mass=0.7, regional_presence_prob=0.2
        )
        video = catalog.by_rank(len(catalog) - 1 - video_offset)
        rng = random.Random(pulls)
        for _ in range(pulls):
            placement.pull_through(dc_ids[rng.randrange(len(dc_ids))], video)
        holders = set(placement.holders(video))
        assert set(placement.origins(video)) <= holders or video.rank < placement._head_ranks

    def test_residency_monotone_without_cap(self):
        catalog = VideoCatalog(size=600, seed=4)
        dc_ids = [f"dc-{i}" for i in range(5)]
        placement = ContentPlacement(
            catalog, dc_ids, replicated_mass=0.7, regional_presence_prob=0.0
        )
        video = catalog.by_rank(len(catalog) - 2)
        sizes = []
        for dc_id in dc_ids:
            placement.pull_through(dc_id, video)
            sizes.append(len(placement.holders(video)))
        assert sizes == sorted(sizes)


class TestEngineInvariants:
    def test_flow_conservation(self, tiny_world):
        """Without monitor loss, every emitted flow event lands in the trace
        and every request produces at least its video flow."""
        from repro.sim.engine import run_requests

        requests = tiny_world.generator.generate(tiny_world.duration_s)
        result = run_requests(tiny_world, requests=requests, miss_probability=0.0)
        assert result.requests == len(requests)
        assert len(result.dataset) >= result.requests

    def test_cause_counts_cover_requests(self, study_results):
        for name, result in study_results.items():
            direct = result.cause_counts.get("direct", 0)
            redirected_requests = result.requests - direct
            redirect_events = sum(
                count for cause, count in result.cause_counts.items()
                if cause != "direct"
            )
            # Chains mean events >= redirected requests; both bounded by 3x.
            assert redirect_events >= redirected_requests, name
            assert redirect_events <= 3 * redirected_requests + 1, name

    def test_trace_times_within_window(self, study_results):
        for name, result in study_results.items():
            duration = result.dataset.duration_s
            cols = result.dataset.table.columns()
            assert (cols.t_start >= 0.0).all(), name
            # Flows may end (or, via interactions, start) slightly past
            # the window edge, but never implausibly far.
            assert (cols.t_end < duration + 4000.0).all(), name


class TestSessionFlowPartition:
    def test_focus_records_partition_into_sessions(self, pipeline):
        for name in pipeline.dataset_names:
            table = pipeline.focus_tables[name]
            sessions = pipeline.sessions[name]
            assert int(sessions.sizes.sum()) == len(table)
            assert sorted(sessions.rows.tolist()) == list(range(len(table)))
