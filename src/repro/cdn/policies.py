"""Selection strategies from the wider CDN literature.

The paper infers one particular mechanism — a per-resolver preferred data
center with caps, overrides and spill (:class:`~repro.cdn.selection.
PreferredDcPolicy`).  ROADMAP item 3 asks whether the paper's *blind*
inference methodology survives when the mechanism itself changes, so this
module adds three strategies the literature proposes, each registered as a
first-class ``policy`` kind:

* ``"gwtw"`` — :class:`GoWithTheWinnerPolicy`, after Liu, Sitaraman and
  Towsley's "go-with-the-winner" principle: the client races a few
  candidate servers per chunk and commits to whichever answers first, with
  per-session stickiness.  There is no authoritative preference any more —
  the winner is whoever the (noisy) network favoured this time.
* ``"isp-te"`` — :class:`IspTrafficEngineeringPolicy`, after Frank et al.'s
  content-aware traffic engineering: the *ISP-side resolver* steers
  requests across candidate data centers with a weight table derived from
  link costs, and re-solves the table mid-week when a link's cost changes
  — assignments shift under the analysis pipeline's feet.
* ``"partition"`` — :class:`PartitionedRankingPolicy`, after Gürsun's
  routing-aware address-space partitioning: rankings are computed once per
  partition of the resolver address space and shared by every resolver in
  a partition, rather than being a per-/24 decision.

All three draw their randomness from a seed handed in at construction, so
a simulated week stays reproducible from its master seed alone, and all
three answer :meth:`~repro.cdn.selection.SelectionPolicy.preferred_now`
without consuming randomness — the ground-truth log must never perturb
the week it describes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cdn.datacenter import DataCenterDirectory
from repro.cdn.selection import (
    DEFAULT_TTL_S,
    PolicyContext,
    PreferredDcPolicy,
    SelectionPolicy,
    register_policy,
)

#: Fallback candidate RTT when the context carries no measurement (ms).
_DEFAULT_RTT_MS = 80.0


@dataclass(frozen=True)
class RaceOutcome:
    """Ground truth of one Go-With-The-Winner race (diagnostics/tests).

    Attributes:
        resolver_id: The racing resolver.
        t_s: Race time.
        candidates: The raced data centers, in ranking order.
        answered: The subset that answered the probe.
        response_ms: Simulated response time per answering candidate.
        winner: The committed data center.
        fallback: True when nobody answered and the policy fell back to
            the first candidate.
    """

    resolver_id: str
    t_s: float
    candidates: Tuple[str, ...]
    answered: Tuple[str, ...]
    response_ms: Mapping[str, float]
    winner: str
    fallback: bool


class GoWithTheWinnerPolicy(SelectionPolicy):
    """Race k candidates per request, commit to the first responder.

    Each uncommitted query probes the resolver's top ``race_size``
    candidates; every candidate answers independently with probability
    ``answer_probability``, its response time a jittered multiple of the
    vantage RTT.  The earliest response wins and the resolver sticks with
    the winner for ``session_ttl_s`` seconds (the per-session stickiness
    of the scheme) before racing again.

    Args:
        directory: All data centers.
        rankings: Per-resolver candidate order (best first).
        rtt_ms: Vantage RTT per data center (the race's latency floor).
        race_size: Candidates probed per race (>= 2).
        answer_probability: Chance each probed candidate answers.
        session_ttl_s: Commitment lifetime after a race.
        seed: RNG seed.
        ttl_s: DNS answer TTL.
    """

    def __init__(
        self,
        directory: DataCenterDirectory,
        rankings: Mapping[str, Sequence[str]],
        rtt_ms: Optional[Mapping[str, float]] = None,
        race_size: int = 3,
        answer_probability: float = 0.96,
        session_ttl_s: float = 300.0,
        seed: int = 0,
        ttl_s: float = DEFAULT_TTL_S,
    ):
        super().__init__(directory, ttl_s)
        if not rankings:
            raise ValueError("rankings must not be empty")
        if race_size < 2:
            raise ValueError("race_size must be >= 2")
        if not 0.0 < answer_probability <= 1.0:
            raise ValueError("answer_probability must be in (0, 1]")
        if session_ttl_s < 0.0:
            raise ValueError("session_ttl_s must be >= 0")
        self._rankings: Dict[str, List[str]] = {r: list(v) for r, v in rankings.items()}
        self._rtt_ms = dict(rtt_ms or {})
        self._race_size = race_size
        self._answer_probability = answer_probability
        self._session_ttl_s = session_ttl_s
        self._rng = random.Random(seed)
        # resolver_id -> (committed dc, commitment expiry time)
        self._commits: Dict[str, Tuple[str, float]] = {}
        #: Last race run (tests assert the answered-only-winner contract).
        self.last_race: Optional[RaceOutcome] = None
        #: Races run / queries served from a live commitment.
        self.races = 0
        self.sticky_hits = 0

    def ranking_for(self, resolver_id: str) -> List[str]:
        """Candidate order for a resolver.

        Raises:
            KeyError: If the resolver has no configured ranking.
        """
        try:
            return list(self._rankings[resolver_id])
        except KeyError:
            raise KeyError(f"no ranking configured for resolver {resolver_id!r}") from None

    def preferred_now(self, resolver_id: str, now_s: float) -> str:
        """Head of the candidate order (no copy — called per request)."""
        ranking = self._rankings.get(resolver_id)
        if ranking is None:
            raise KeyError(f"no ranking configured for resolver {resolver_id!r}")
        return ranking[0]

    def select_dc(self, resolver_id: str, now_s: float) -> str:
        """Serve from the live commitment, or race and commit."""
        commit = self._commits.get(resolver_id)
        if commit is not None and now_s < commit[1]:
            self.sticky_hits += 1
            return commit[0]
        ranking = self._rankings.get(resolver_id)
        if ranking is None:
            raise KeyError(f"no ranking configured for resolver {resolver_id!r}")
        candidates = tuple(ranking[: self._race_size])
        response_ms: Dict[str, float] = {}
        for dc_id in candidates:
            # Two draws per candidate, answered or not: the RNG schedule
            # must not depend on outcomes, or equal seeds could diverge.
            answered = self._rng.random() < self._answer_probability
            jitter = self._rng.uniform(0.7, 1.8)
            if answered:
                response_ms[dc_id] = self._rtt_ms.get(dc_id, _DEFAULT_RTT_MS) * jitter
        if response_ms:
            winner = min(response_ms, key=lambda d: (response_ms[d], d))
            fallback = False
        else:
            # Total probe loss: behave like a plain preferred answer.
            winner = candidates[0]
            fallback = True
        self._commits[resolver_id] = (winner, now_s + self._session_ttl_s)
        self.races += 1
        self.last_race = RaceOutcome(
            resolver_id=resolver_id,
            t_s=now_s,
            candidates=candidates,
            answered=tuple(sorted(response_ms)),
            response_ms=response_ms,
            winner=winner,
            fallback=fallback,
        )
        return winner


class IspTrafficEngineeringPolicy(SelectionPolicy):
    """ISP-side steering table over candidate data centers, by link cost.

    The ISP's resolver — not the content provider — picks among the top
    ``num_candidates`` data centers with weights proportional to
    ``1 / cost²`` (cost = vantage RTT, floored at 1 ms).  Halfway through
    the window the cheapest link's cost is multiplied by
    ``congestion_factor`` (a peering link congests, or its 95th-percentile
    bill spikes) and the table is re-solved — the mid-week assignment
    shift the attribution scorer must cope with.

    Args:
        directory: All data centers.
        rankings: Per-resolver candidate order (cheapest link first).
        rtt_ms: Link cost proxy per data center.
        duration_s: Window length; the shift lands at its midpoint.
        num_candidates: Steering-table width.
        congestion_factor: Mid-week cost multiplier on the cheapest link.
        seed: RNG seed (weighted sampling).
        ttl_s: DNS answer TTL.
    """

    def __init__(
        self,
        directory: DataCenterDirectory,
        rankings: Mapping[str, Sequence[str]],
        rtt_ms: Optional[Mapping[str, float]] = None,
        duration_s: float = 7 * 86400.0,
        num_candidates: int = 3,
        congestion_factor: float = 2.5,
        seed: int = 0,
        ttl_s: float = DEFAULT_TTL_S,
    ):
        super().__init__(directory, ttl_s)
        if not rankings:
            raise ValueError("rankings must not be empty")
        if num_candidates < 2:
            raise ValueError("num_candidates must be >= 2")
        if congestion_factor <= 1.0:
            raise ValueError("congestion_factor must be > 1")
        if duration_s <= 0.0:
            raise ValueError("duration_s must be positive")
        self._rankings: Dict[str, List[str]] = {r: list(v) for r, v in rankings.items()}
        rtt_ms = dict(rtt_ms or {})
        self.shift_t_s = duration_s / 2.0
        self._rng = random.Random(seed)
        #: Queries steered per data center (volume-conservation invariant:
        #: the counters always sum to the number of queries answered).
        self.steered: Dict[str, int] = {}
        # Two pre-solved tables per resolver: before and after the shift.
        self._tables: Dict[str, Tuple[List[Tuple[str, float]], List[Tuple[str, float]]]] = {}
        for resolver_id, ranking in self._rankings.items():
            candidates = list(ranking[:num_candidates])
            costs = {
                dc_id: max(1.0, rtt_ms.get(dc_id, _DEFAULT_RTT_MS))
                for dc_id in candidates
            }
            early = self._solve(candidates, costs)
            congested = dict(costs)
            congested[candidates[0]] *= congestion_factor
            late = self._solve(candidates, congested)
            self._tables[resolver_id] = (early, late)

    @staticmethod
    def _solve(candidates: List[str], costs: Dict[str, float]) -> List[Tuple[str, float]]:
        """Normalised ``1/cost²`` weights, in candidate order."""
        raw = [(dc_id, 1.0 / costs[dc_id] ** 2) for dc_id in candidates]
        total = sum(w for _dc, w in raw)
        return [(dc_id, w / total) for dc_id, w in raw]

    def _table(self, resolver_id: str, now_s: float) -> List[Tuple[str, float]]:
        try:
            early, late = self._tables[resolver_id]
        except KeyError:
            raise KeyError(f"no steering table for resolver {resolver_id!r}") from None
        return early if now_s < self.shift_t_s else late

    def ranking_for(self, resolver_id: str) -> List[str]:
        """Base candidate order (time-independent; redirection uses it).

        Raises:
            KeyError: If the resolver has no configured ranking.
        """
        try:
            return list(self._rankings[resolver_id])
        except KeyError:
            raise KeyError(f"no ranking configured for resolver {resolver_id!r}") from None

    def preferred_now(self, resolver_id: str, now_s: float) -> str:
        """Highest-weight steering entry — shifts at the mid-week re-solve."""
        table = self._table(resolver_id, now_s)
        return max(table, key=lambda entry: (entry[1], entry[0]))[0]

    def select_dc(self, resolver_id: str, now_s: float) -> str:
        """Sample the active steering table."""
        table = self._table(resolver_id, now_s)
        u = self._rng.random()
        acc = 0.0
        chosen = table[-1][0]
        for dc_id, weight in table:
            acc += weight
            if u <= acc:
                chosen = dc_id
                break
        self.steered[chosen] = self.steered.get(chosen, 0) + 1
        return chosen


class PartitionedRankingPolicy(PreferredDcPolicy):
    """Rankings per address-space partition, not per resolver.

    Gürsun's routing-aware partitioning observation: the mapping system
    does not decide per /24 — prefixes that route alike are grouped and
    the group shares one decision.  Here the resolver space is chunked
    (sorted, ``partition_size`` per group) and each group's rankings are
    Borda-merged into one shared ranking; everything else (caps, spill,
    budgets) is inherited from :class:`PreferredDcPolicy`.  A divergent
    resolver therefore no longer gets a private override — its vote is
    averaged into its partition, exactly the information loss the
    attribution scorer should see.

    Args:
        directory: All data centers.
        rankings: Per-resolver preference order (pre-partitioning).
        partition_size: Resolvers per partition (>= 1).
        dns_capacity_per_hour: As in :class:`PreferredDcPolicy`.
        spill_probability: As in :class:`PreferredDcPolicy`.
        seed: RNG seed.
        ttl_s: DNS answer TTL.
    """

    def __init__(
        self,
        directory: DataCenterDirectory,
        rankings: Mapping[str, Sequence[str]],
        partition_size: int = 2,
        dns_capacity_per_hour: Optional[Mapping[str, float]] = None,
        spill_probability: float = 0.0,
        seed: int = 0,
        ttl_s: float = DEFAULT_TTL_S,
    ):
        if partition_size < 1:
            raise ValueError("partition_size must be >= 1")
        if not rankings:
            raise ValueError("rankings must not be empty")
        #: resolver_id -> partition index (stable: sorted-id chunks).
        self.partition_of: Dict[str, int] = {}
        members = sorted(rankings)
        merged: Dict[str, List[str]] = {}
        for start in range(0, len(members), partition_size):
            group = members[start : start + partition_size]
            pid = start // partition_size
            shared = self._borda_merge([rankings[r] for r in group])
            for resolver_id in group:
                self.partition_of[resolver_id] = pid
                merged[resolver_id] = list(shared)
        super().__init__(
            directory=directory,
            rankings=merged,
            dns_capacity_per_hour=dict(dns_capacity_per_hour or {}),
            spill_probability=spill_probability,
            seed=seed,
            ttl_s=ttl_s,
        )

    @staticmethod
    def _borda_merge(rankings: Sequence[Sequence[str]]) -> List[str]:
        """Rank-sum (Borda) merge; ties break by the first member's order.

        Raises:
            ValueError: If the members rank different data-center sets.
        """
        first = list(rankings[0])
        universe = set(first)
        for ranking in rankings[1:]:
            if set(ranking) != universe:
                raise ValueError(
                    "partition members must rank the same data centers"
                )
        scores = {dc_id: 0 for dc_id in first}
        for ranking in rankings:
            for position, dc_id in enumerate(ranking):
                scores[dc_id] += position
        return sorted(first, key=lambda dc_id: (scores[dc_id], first.index(dc_id)))


@register_policy("gwtw")
def _make_gwtw(context: PolicyContext) -> GoWithTheWinnerPolicy:
    """Go-With-The-Winner: race candidates, commit to the first responder."""
    return GoWithTheWinnerPolicy(
        directory=context.directory,
        rankings=dict(context.rankings),
        rtt_ms=dict(context.rtt_ms),
        seed=context.seed,
        ttl_s=context.ttl_s,
    )


@register_policy("isp-te")
def _make_isp_te(context: PolicyContext) -> IspTrafficEngineeringPolicy:
    """ISP traffic engineering: link-cost steering, mid-week re-solve."""
    return IspTrafficEngineeringPolicy(
        directory=context.directory,
        rankings=dict(context.rankings),
        rtt_ms=dict(context.rtt_ms),
        duration_s=context.duration_s,
        seed=context.seed,
        ttl_s=context.ttl_s,
    )


@register_policy("partition")
def _make_partition(context: PolicyContext) -> PartitionedRankingPolicy:
    """Routing-aware partitioning: shared rankings per resolver partition."""
    return PartitionedRankingPolicy(
        directory=context.directory,
        rankings=dict(context.rankings),
        dns_capacity_per_hour=dict(context.dns_capacity_per_hour),
        spill_probability=context.spill_probability,
        seed=context.seed,
        ttl_s=context.ttl_s,
    )
