"""Property-based invariants of the pluggable selection policies.

Randomised checks of the contracts the selection-policy testbed leans on:

- Every registered policy is seed-deterministic: the same ``(kind, seed)``
  replays the same decision sequence, and a full simulated week digests
  identically run in-process or in a process pool.
- Go-With-The-Winner commits only to servers that actually answered the
  race (the fallback path is flagged, never silently committed).
- ISP traffic engineering conserves request volume: every query is
  steered to exactly one data center, and the steering weights are a
  probability distribution at any time.
- Routing-aware partitioning gives every resolver in a partition the
  same ranking (that is what "per address-space partition" means).

The whole module skips cleanly when hypothesis is not installed.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.cdn.datacenter import DataCenterDirectory, build_datacenter  # noqa: E402
from repro.cdn.policies import (  # noqa: E402
    GoWithTheWinnerPolicy,
    IspTrafficEngineeringPolicy,
    PartitionedRankingPolicy,
)
from repro.cdn.selection import (  # noqa: E402
    PolicyContext,
    make_policy,
    registered_policy_kinds,
)
from repro.geo.cities import default_atlas  # noqa: E402
from repro.net.asn import GOOGLE_ASN  # noqa: E402
from repro.net.ip import Ipv4Allocator, parse_network  # noqa: E402
from repro.sim import driver  # noqa: E402
from tests.execpaths import PATHS, forced  # noqa: E402


def _directory():
    atlas = default_atlas()
    alloc = Ipv4Allocator((parse_network("173.194.0.0/16"),))
    dcs = [
        build_datacenter("dc-a", atlas.get("Milan"), 10, alloc, GOOGLE_ASN),
        build_datacenter("dc-b", atlas.get("Zurich"), 20, alloc, GOOGLE_ASN),
        build_datacenter("dc-c", atlas.get("Paris"), 40, alloc, GOOGLE_ASN),
        build_datacenter("dc-d", atlas.get("London"), 15, alloc, GOOGLE_ASN),
    ]
    return DataCenterDirectory(dcs)


DIRECTORY = _directory()

RANKINGS = {
    "r1": ["dc-a", "dc-b", "dc-c", "dc-d"],
    "r2": ["dc-b", "dc-a", "dc-d", "dc-c"],
    "r3": ["dc-c", "dc-d", "dc-a", "dc-b"],
    "r4": ["dc-d", "dc-c", "dc-b", "dc-a"],
}

RTT_MS = {"dc-a": 12.0, "dc-b": 25.0, "dc-c": 48.0, "dc-d": 31.0}


def _context(seed):
    return PolicyContext(
        directory=DIRECTORY,
        rankings=RANKINGS,
        eligible=("dc-a", "dc-b", "dc-c", "dc-d"),
        rtt_ms=RTT_MS,
        seed=seed,
    )


resolvers = st.sampled_from(sorted(RANKINGS))
seeds = st.integers(min_value=0, max_value=2**31 - 1)
times = st.floats(min_value=0.0, max_value=7 * 86400.0,
                  allow_nan=False, allow_infinity=False)


class TestSeedDeterminism:
    @given(seed=seeds,
           kind=st.sampled_from(registered_policy_kinds()),
           queries=st.lists(st.tuples(resolvers, times), min_size=1,
                            max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_same_seed_replays_the_same_decisions(self, seed, kind, queries):
        # Time-ordered queries: GWTW session expiry assumes a clock that
        # never runs backwards (as in the simulator).
        queries = sorted(queries, key=lambda q: q[1])
        first = make_policy(kind, _context(seed))
        second = make_policy(kind, _context(seed))
        picks_a = [first.select_dc(r, t) for r, t in queries]
        picks_b = [second.select_dc(r, t) for r, t in queries]
        assert picks_a == picks_b

    @given(seed=seeds, kind=st.sampled_from(registered_policy_kinds()))
    @settings(max_examples=15, deadline=None)
    def test_preferred_now_consumes_no_randomness(self, seed, kind):
        """Ground-truth observation must not perturb the decision stream."""
        observed = make_policy(kind, _context(seed))
        silent = make_policy(kind, _context(seed))
        picks_a = []
        picks_b = []
        for step in range(30):
            t = step * 400.0
            # Interleave observations on one policy only.
            observed.preferred_now("r1", t)
            observed.preferred_now("r3", t)
            picks_a.append(observed.select_dc("r2", t))
            picks_b.append(silent.select_dc("r2", t))
        assert picks_a == picks_b

    @pytest.mark.parametrize("kind", registered_policy_kinds())
    def test_backends_agree_on_a_simulated_week(self, kind):
        """In-process and pooled runs digest identically per policy."""
        # The driver memoises runs in-process by (spec, scale, seed,
        # policy) — exactly what would make this test vacuous.  Empty the
        # memo before each path so every path really simulates, and
        # restore other modules' warm entries afterwards.
        saved = dict(driver._CACHE)
        try:
            digests = set()
            for path in PATHS:
                driver.clear_cache()
                with forced(path):
                    results = driver.run_all(
                        scale=0.004, seed=11, policy_kind=kind,
                        names=("EU1-FTTH", "EU1-Campus"),
                    )
                digests.add(tuple(
                    (name, results[name].dataset.content_digest())
                    for name in sorted(results)
                ))
            assert len(digests) == 1
        finally:
            driver._CACHE.clear()
            driver._CACHE.update(saved)


class TestGoWithTheWinner:
    @given(seed=seeds,
           race_size=st.integers(min_value=2, max_value=4),
           answer_probability=st.floats(min_value=0.05, max_value=1.0),
           queries=st.lists(st.tuples(resolvers, times), min_size=1,
                            max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_commits_only_to_answering_servers(self, seed, race_size,
                                               answer_probability, queries):
        policy = GoWithTheWinnerPolicy(
            DIRECTORY, RANKINGS, rtt_ms=RTT_MS, race_size=race_size,
            answer_probability=answer_probability, seed=seed,
        )
        queries = sorted(queries, key=lambda q: q[1])
        for resolver_id, t_s in queries:
            picked = policy.select_dc(resolver_id, t_s)
            race = policy.last_race
            if race is not None and race.t_s == t_s and \
                    race.resolver_id == resolver_id:
                if race.fallback:
                    # Nobody answered; the policy falls back openly.
                    assert race.answered == ()
                    assert race.winner == race.candidates[0]
                else:
                    assert race.winner in race.answered
                assert picked == race.winner
                assert picked in race.candidates

    @given(seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_commitment_is_sticky_within_the_session_ttl(self, seed):
        policy = GoWithTheWinnerPolicy(
            DIRECTORY, RANKINGS, rtt_ms=RTT_MS, session_ttl_s=300.0,
            seed=seed,
        )
        first = policy.select_dc("r1", 1000.0)
        assert policy.select_dc("r1", 1100.0) == first
        assert policy.select_dc("r1", 1299.0) == first
        assert policy.sticky_hits >= 2


class TestIspTrafficEngineering:
    @given(seed=seeds,
           queries=st.lists(st.tuples(resolvers, times), min_size=1,
                            max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_steering_conserves_request_volume(self, seed, queries):
        policy = IspTrafficEngineeringPolicy(
            DIRECTORY, RANKINGS, rtt_ms=RTT_MS, seed=seed,
        )
        for resolver_id, t_s in queries:
            dc = policy.select_dc(resolver_id, t_s)
            assert dc in RANKINGS[resolver_id]
        assert sum(policy.steered.values()) == len(queries)

    @given(seed=seeds, resolver_id=resolvers, t_s=times)
    @settings(max_examples=60, deadline=None)
    def test_steering_weights_are_a_distribution(self, seed, resolver_id,
                                                 t_s):
        policy = IspTrafficEngineeringPolicy(
            DIRECTORY, RANKINGS, rtt_ms=RTT_MS, seed=seed,
        )
        weights = dict(policy._table(resolver_id, t_s))
        assert weights
        assert all(w > 0.0 for w in weights.values())
        assert sum(weights.values()) == pytest.approx(1.0)

    @given(seed=seeds, resolver_id=resolvers)
    @settings(max_examples=25, deadline=None)
    def test_congestion_shifts_weight_off_the_preferred_dc(self, seed,
                                                           resolver_id):
        policy = IspTrafficEngineeringPolicy(
            DIRECTORY, RANKINGS, rtt_ms=RTT_MS, seed=seed,
        )
        head = RANKINGS[resolver_id][0]
        early = dict(policy._table(resolver_id, 0.0))
        late = dict(policy._table(resolver_id, policy.shift_t_s))
        assert late[head] < early[head]


class TestPartitionedRanking:
    @given(seed=seeds, partition_size=st.integers(min_value=1, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_rankings_are_stable_within_a_partition(self, seed,
                                                    partition_size):
        policy = PartitionedRankingPolicy(
            DIRECTORY, RANKINGS, partition_size=partition_size, seed=seed,
        )
        by_partition = {}
        for resolver_id in RANKINGS:
            partition = policy.partition_of[resolver_id]
            ranking = tuple(policy.ranking_for(resolver_id))
            by_partition.setdefault(partition, set()).add(ranking)
        for partition, rankings in by_partition.items():
            assert len(rankings) == 1, (
                f"partition {partition} has divergent rankings: {rankings}"
            )

    @given(seed=seeds, partition_size=st.integers(min_value=1, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_merged_ranking_is_a_permutation_of_the_members(self, seed,
                                                            partition_size):
        policy = PartitionedRankingPolicy(
            DIRECTORY, RANKINGS, partition_size=partition_size, seed=seed,
        )
        for resolver_id, base in RANKINGS.items():
            assert sorted(policy.ranking_for(resolver_id)) == sorted(base)
