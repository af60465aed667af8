"""Unit tests for the literature selection policies and the registry."""

import pytest

from repro.cdn.datacenter import DataCenterDirectory, build_datacenter
from repro.cdn.policies import (
    GoWithTheWinnerPolicy,
    IspTrafficEngineeringPolicy,
    PartitionedRankingPolicy,
)
from repro.cdn.selection import (
    PolicyContext,
    PreferredDcPolicy,
    UnknownPolicyError,
    make_policy,
    register_policy,
    registered_policy_kinds,
)
from repro.geo.cities import default_atlas
from repro.net.asn import GOOGLE_ASN
from repro.net.ip import Ipv4Allocator, parse_network


@pytest.fixture
def directory():
    atlas = default_atlas()
    alloc = Ipv4Allocator((parse_network("173.194.0.0/16"),))
    dcs = [
        build_datacenter("dc-a", atlas.get("Milan"), 10, alloc, GOOGLE_ASN),
        build_datacenter("dc-b", atlas.get("Zurich"), 20, alloc, GOOGLE_ASN),
        build_datacenter("dc-c", atlas.get("Paris"), 40, alloc, GOOGLE_ASN),
    ]
    return DataCenterDirectory(dcs)


RANKINGS = {"r1": ["dc-a", "dc-b", "dc-c"], "r2": ["dc-b", "dc-a", "dc-c"]}
RTT_MS = {"dc-a": 12.0, "dc-b": 25.0, "dc-c": 48.0}


class TestRegistry:
    def test_builtin_kinds_are_registered_sorted(self):
        kinds = registered_policy_kinds()
        assert kinds == tuple(sorted(kinds))
        assert {"preferred", "proportional", "geographic", "gwtw",
                "isp-te", "partition"} <= set(kinds)

    def test_make_policy_builds_each_kind(self, directory):
        context = PolicyContext(
            directory=directory, rankings=RANKINGS,
            eligible=("dc-a", "dc-b", "dc-c"), rtt_ms=RTT_MS, seed=3,
        )
        for kind in registered_policy_kinds():
            policy = make_policy(kind, context)
            picked = policy.select_dc("r1", 0.0)
            assert picked in ("dc-a", "dc-b", "dc-c")

    def test_unknown_kind_raises_naming_the_alternatives(self, directory):
        context = PolicyContext(
            directory=directory, rankings=RANKINGS,
            eligible=("dc-a",), seed=3,
        )
        with pytest.raises(UnknownPolicyError) as excinfo:
            make_policy("anycast", context)
        message = str(excinfo.value)
        assert "anycast" in message
        for kind in registered_policy_kinds():
            assert kind in message

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_policy("preferred")(lambda context: None)

    def test_empty_kind_rejected(self):
        with pytest.raises(ValueError):
            register_policy("")(lambda context: None)

    def test_preferred_factory_matches_direct_construction(self, directory):
        context = PolicyContext(
            directory=directory, rankings=RANKINGS,
            eligible=("dc-a", "dc-b", "dc-c"), spill_probability=0.1,
            seed=9,
        )
        from_registry = make_policy("preferred", context)
        direct = PreferredDcPolicy(
            directory, RANKINGS, spill_probability=0.1, seed=9,
        )
        picks_a = [from_registry.select_dc("r1", 0.0) for _ in range(200)]
        picks_b = [direct.select_dc("r1", 0.0) for _ in range(200)]
        assert picks_a == picks_b


class TestGoWithTheWinner:
    def test_races_then_commits(self, directory):
        policy = GoWithTheWinnerPolicy(
            directory, RANKINGS, rtt_ms=RTT_MS, session_ttl_s=300.0, seed=4,
        )
        first = policy.select_dc("r1", 0.0)
        assert policy.races == 1
        assert policy.select_dc("r1", 10.0) == first
        assert policy.sticky_hits == 1

    def test_commitment_expires_after_the_session_ttl(self, directory):
        policy = GoWithTheWinnerPolicy(
            directory, RANKINGS, rtt_ms=RTT_MS, session_ttl_s=300.0, seed=4,
        )
        policy.select_dc("r1", 0.0)
        policy.select_dc("r1", 301.0)
        assert policy.races == 2

    def test_all_answer_still_races_within_candidates(self, directory):
        policy = GoWithTheWinnerPolicy(
            directory, RANKINGS, rtt_ms=RTT_MS, race_size=2,
            answer_probability=1.0, session_ttl_s=0.0, seed=4,
        )
        for step in range(50):
            picked = policy.select_dc("r1", float(step * 1000))
            assert picked in ("dc-a", "dc-b")  # ranking[:2]
            assert not policy.last_race.fallback

    def test_nobody_answers_falls_back_to_the_head(self, directory):
        # answer_probability must be > 0, so drive the RNG instead: with
        # a tiny probability every race ends in fallback almost surely.
        policy = GoWithTheWinnerPolicy(
            directory, RANKINGS, rtt_ms=RTT_MS, answer_probability=1e-12,
            session_ttl_s=0.0, seed=4,
        )
        picked = policy.select_dc("r1", 0.0)
        assert policy.last_race.fallback
        assert policy.last_race.answered == ()
        assert picked == "dc-a"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"race_size": 1},
            {"answer_probability": 0.0},
            {"answer_probability": 1.5},
            {"session_ttl_s": -1.0},
        ],
    )
    def test_invalid_parameters_rejected(self, directory, kwargs):
        with pytest.raises(ValueError):
            GoWithTheWinnerPolicy(directory, RANKINGS, rtt_ms=RTT_MS,
                                  **kwargs)

    def test_unknown_resolver_raises(self, directory):
        policy = GoWithTheWinnerPolicy(directory, RANKINGS, rtt_ms=RTT_MS)
        with pytest.raises(KeyError):
            policy.select_dc("r9", 0.0)


class TestIspTrafficEngineering:
    def test_steering_shifts_mid_week(self, directory):
        week = 7 * 86400.0
        policy = IspTrafficEngineeringPolicy(
            directory, RANKINGS, rtt_ms=RTT_MS, duration_s=week, seed=5,
        )
        assert policy.shift_t_s == week / 2.0
        early = dict(policy._table("r1", 0.0))
        late = dict(policy._table("r1", week - 1.0))
        assert early != late
        assert early["dc-a"] > late["dc-a"]

    def test_preferred_now_tracks_the_steering_table(self, directory):
        # dc-a at 12 ms is the early favourite; congested ×2.5 it costs
        # an effective 30 ms and dc-b (25 ms) takes over.
        policy = IspTrafficEngineeringPolicy(
            directory, RANKINGS, rtt_ms=RTT_MS, congestion_factor=2.5,
            seed=5,
        )
        assert policy.preferred_now("r1", 0.0) == "dc-a"
        assert policy.preferred_now("r1", policy.shift_t_s) == "dc-b"

    def test_low_cost_dcs_get_more_traffic(self, directory):
        policy = IspTrafficEngineeringPolicy(
            directory, RANKINGS, rtt_ms=RTT_MS, seed=5,
        )
        for _ in range(3000):
            policy.select_dc("r1", 0.0)
        assert policy.steered["dc-a"] > policy.steered["dc-b"] > \
            policy.steered.get("dc-c", 0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_candidates": 1},
            {"congestion_factor": 1.0},
            {"duration_s": 0.0},
        ],
    )
    def test_invalid_parameters_rejected(self, directory, kwargs):
        with pytest.raises(ValueError):
            IspTrafficEngineeringPolicy(directory, RANKINGS, rtt_ms=RTT_MS,
                                        **kwargs)


class TestPartitionedRanking:
    def test_partition_members_share_one_merged_ranking(self, directory):
        policy = PartitionedRankingPolicy(
            directory, RANKINGS, partition_size=2, seed=6,
        )
        assert policy.partition_of["r1"] == policy.partition_of["r2"]
        assert policy.ranking_for("r1") == policy.ranking_for("r2")

    def test_borda_merge_of_the_fixture_rankings(self, directory):
        # r1 ranks a>b>c, r2 ranks b>a>c: a and b tie on rank sum and the
        # first member's order (r1: a before b) breaks the tie.
        policy = PartitionedRankingPolicy(
            directory, RANKINGS, partition_size=2, seed=6,
        )
        assert policy.ranking_for("r1") == ["dc-a", "dc-b", "dc-c"]

    def test_partition_size_one_degenerates_to_preferred(self, directory):
        partitioned = PartitionedRankingPolicy(
            directory, RANKINGS, partition_size=1, seed=6,
        )
        plain = PreferredDcPolicy(directory, RANKINGS, seed=6)
        for resolver_id in RANKINGS:
            assert partitioned.ranking_for(resolver_id) == \
                plain.ranking_for(resolver_id)

    def test_mismatched_member_dc_sets_rejected(self, directory):
        rankings = {"r1": ["dc-a", "dc-b"], "r2": ["dc-b", "dc-c"]}
        with pytest.raises(ValueError):
            PartitionedRankingPolicy(directory, rankings, partition_size=2)

    def test_invalid_partition_size_rejected(self, directory):
        with pytest.raises(ValueError):
            PartitionedRankingPolicy(directory, RANKINGS, partition_size=0)
