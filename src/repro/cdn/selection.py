"""DNS-level server selection policies and the pluggable policy registry.

This is the first of the paper's two selection mechanisms (Section VI):
"The first is based on DNS resolution which returns the server IP address in
a data center".  The policy sees *which local resolver* is asking and decides
which data center's server to hand back.

Two policies live here:

* :class:`PreferredDcPolicy` — the "new" (2010) YouTube behaviour the paper
  infers: each resolver has a preferred (lowest-RTT) data center, but the
  answer can deviate because of (a) per-data-center DNS assignment caps that
  shed load during diurnal peaks (Section VII-A, Figure 11), (b) standing
  per-resolver overrides that send some resolvers to a different preferred
  data center (Section VII-B, Figure 12), and (c) a small background
  load-balancing spill (the ~5 % of single-flow sessions that land directly
  on a non-preferred data center in Figure 10a).

* :class:`ProportionalPolicy` — the "old" pre-Google behaviour reported by
  Adhikari et al.: requests go to data centers proportionally to data-center
  size, ignoring the client's location.  Kept as the ablation baseline.

Selection strategies from the wider literature (Go-With-The-Winner, ISP
traffic engineering, routing-aware partitioning) live in
:mod:`repro.cdn.policies`.  All of them — including the two above — are
reachable through the **policy registry**: :func:`register_policy` binds a
kind string to a factory over a :class:`PolicyContext`, and
:func:`make_policy` is the single constructor every world builder goes
through.  :func:`registered_policy_kinds` is the authoritative list the
spec layer, the grid axis validation and the CLI all consult, so adding a
policy here makes it a first-class ``policy`` value everywhere at once.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cdn.datacenter import ContentServer, DataCenterDirectory
from repro.net.dns import Answer

#: Short TTL so the authoritative policy keeps per-request control.
DEFAULT_TTL_S = 20.0


def parse_shard(hostname: str) -> int:
    """Extract the shard index from a ``v<k>.lscache...`` hostname.

    Raises:
        ValueError: If the hostname is not in the sharded form.
    """
    label = hostname.split(".", 1)[0]
    if not label.startswith("v") or not label[1:].isdigit():
        raise ValueError(f"not a sharded content hostname: {hostname!r}")
    return int(label[1:])


def check_spill_probability(spill_probability: float) -> None:
    """The range check :class:`PreferredDcPolicy` runs on ``spill_probability``."""
    if not 0.0 <= spill_probability < 1.0:
        raise ValueError(f"spill_probability must be in [0, 1), got {spill_probability!r}")


class SelectionPolicy(abc.ABC):
    """Base class: a :class:`repro.net.dns.NameMapper` over a data-center set.

    Subclasses own their randomness (seeded at construction) so that a
    simulated world is reproducible from its seed alone.
    """

    def __init__(self, directory: DataCenterDirectory, ttl_s: float = DEFAULT_TTL_S):
        self._directory = directory
        self._ttl_s = ttl_s
        #: Total answers handed out per data center (diagnostics only).
        self.assignments: Dict[str, int] = {}

    @abc.abstractmethod
    def select_dc(self, resolver_id: str, now_s: float) -> str:
        """Pick the data center for one query."""

    @abc.abstractmethod
    def ranking_for(self, resolver_id: str) -> List[str]:
        """The resolver's data-center preference order (best first)."""

    def preferred_now(self, resolver_id: str, now_s: float) -> str:
        """The data center this policy *intends* for a resolver right now.

        This is the simulator-side ground truth the attribution scorer
        (:mod:`repro.eval.attribution`) compares the blind pipeline's
        preferred-DC inference against.  The default — the head of the
        resolver's ranking — is right for every ranking-driven policy;
        time-varying policies (the mid-week shift of
        :class:`repro.cdn.policies.IspTrafficEngineeringPolicy`) override
        it.  Implementations MUST NOT consume policy randomness: ground
        truth is an observation, and observing it must never change what
        a simulated week does.

        Raises:
            KeyError: If the resolver has no configured ranking.
        """
        return self.ranking_for(resolver_id)[0]

    def server_for_shard(self, dc_id: str, shard: int) -> ContentServer:
        """The data center's server responsible for a name shard.

        The shard-to-server mapping is what concentrates a hot video's
        requests on a single machine per data center (Figure 15).
        """
        dc = self._directory.get(dc_id)
        return dc.server_by_index(shard % dc.size)

    def assign(self, shard: int, resolver_id: str, now_s: float) -> ContentServer:
        """Pick the data center for one query and answer with its shard server."""
        dc_id = self.select_dc(resolver_id, now_s)
        self.assignments[dc_id] = self.assignments.get(dc_id, 0) + 1
        return self.server_for_shard(dc_id, shard)

    def map_name(self, hostname: str, resolver_id: str, now_s: float) -> Answer:
        """Resolve a sharded content hostname for a querying resolver."""
        server = self.assign(parse_shard(hostname), resolver_id, now_s)
        return Answer(ip=server.ip, ttl_s=self._ttl_s)


class PreferredDcPolicy(SelectionPolicy):
    """Preferred-data-center selection with caps, overrides and spill.

    Args:
        directory: All data centers (only those in rankings are eligible).
        rankings: Per-resolver data-center preference order, best (lowest
            RTT) first.  Standing overrides — the Figure 12 mechanism — are
            expressed simply as a different ranking for that resolver.
        dns_capacity_per_hour: Optional per-data-center cap on DNS
            assignments per hour; when the preferred data center's budget is
            exhausted the answer falls through to the next ranked one (the
            Figure 11 mechanism).
        spill_probability: Background probability that an answer skips the
            preferred data center even with budget available.
        seed: RNG seed.
        ttl_s: TTL of the answers.
    """

    def __init__(
        self,
        directory: DataCenterDirectory,
        rankings: Dict[str, Sequence[str]],
        dns_capacity_per_hour: Optional[Dict[str, float]] = None,
        spill_probability: float = 0.0,
        seed: int = 0,
        ttl_s: float = DEFAULT_TTL_S,
    ):
        super().__init__(directory, ttl_s)
        if not rankings:
            raise ValueError("rankings must not be empty")
        for resolver_id, ranking in rankings.items():
            if len(ranking) < 2:
                raise ValueError(f"ranking for {resolver_id!r} needs >= 2 data centers")
        self._rankings: Dict[str, List[str]] = {r: list(v) for r, v in rankings.items()}
        check_spill_probability(spill_probability)
        self._capacity = dict(dns_capacity_per_hour or {})
        self._spill_probability = spill_probability
        self._rng = random.Random(seed)
        # dc_id -> [hour_index, assignments_this_hour]
        self._hour_counts: Dict[str, List[float]] = {}

    def ranking_for(self, resolver_id: str) -> List[str]:
        """Preference order for a resolver.

        Raises:
            KeyError: If the resolver has no configured ranking.
        """
        try:
            return list(self._rankings[resolver_id])
        except KeyError:
            raise KeyError(f"no ranking configured for resolver {resolver_id!r}") from None

    def preferred_dc(self, resolver_id: str) -> str:
        """The resolver's preferred data center."""
        return self.ranking_for(resolver_id)[0]

    def preferred_now(self, resolver_id: str, now_s: float) -> str:
        """Head of the resolver's ranking (no copy — called per request)."""
        ranking = self._rankings.get(resolver_id)
        if ranking is None:
            raise KeyError(f"no ranking configured for resolver {resolver_id!r}")
        return ranking[0]

    def _budget_left(self, dc_id: str, now_s: float) -> bool:
        cap = self._capacity.get(dc_id)
        if cap is None:
            return True
        hour = int(now_s // 3600.0)
        entry = self._hour_counts.get(dc_id)
        if entry is None or entry[0] != hour:
            entry = [hour, 0.0]
            self._hour_counts[dc_id] = entry
        return entry[1] < cap

    def _consume_budget(self, dc_id: str, now_s: float) -> None:
        if dc_id in self._capacity:
            hour = int(now_s // 3600.0)
            entry = self._hour_counts.setdefault(dc_id, [hour, 0.0])
            if entry[0] != hour:
                entry[0] = hour
                entry[1] = 0.0
            entry[1] += 1.0

    def select_dc(self, resolver_id: str, now_s: float) -> str:
        """Pick the data center: preferred unless spilled or over budget."""
        ranking = self._rankings.get(resolver_id)
        if ranking is None:
            raise KeyError(f"no ranking configured for resolver {resolver_id!r}")
        start = 0
        if self._spill_probability and self._rng.random() < self._spill_probability:
            # Background load balancing: hand out a nearby alternate.
            start = 1 if len(ranking) < 3 or self._rng.random() < 0.75 else 2
        for dc_id in ranking[start:]:
            if self._budget_left(dc_id, now_s):
                self._consume_budget(dc_id, now_s)
                return dc_id
        # Every ranked data center is over budget: fall back to preferred.
        return ranking[start]


class ProportionalPolicy(SelectionPolicy):
    """Old-infrastructure baseline: pick data centers by size, not locality.

    Adhikari et al. (IMC 2010) found the pre-Google YouTube "does not
    consider geographical location of clients and ... requests are directed
    to data centers proportionally to the data center size".

    Args:
        directory: All data centers.
        eligible: Data centers participating (defaults to all).
        seed: RNG seed.
        ttl_s: Answer TTL.
    """

    def __init__(
        self,
        directory: DataCenterDirectory,
        eligible: Optional[Sequence[str]] = None,
        seed: int = 0,
        ttl_s: float = DEFAULT_TTL_S,
    ):
        super().__init__(directory, ttl_s)
        ids = list(eligible) if eligible is not None else directory.ids
        if not ids:
            raise ValueError("no eligible data centers")
        self._ids = ids
        weights = [float(directory.get(dc_id).size) for dc_id in ids]
        total = sum(weights)
        self._cum: List[float] = []
        acc = 0.0
        for w in weights:
            acc += w / total
            self._cum.append(acc)
        self._rng = random.Random(seed)
        # Size-descending order doubles as the "ranking" for redirection.
        self._by_size = sorted(ids, key=lambda d: -directory.get(d).size)

    def ranking_for(self, resolver_id: str) -> List[str]:
        """Size-descending order — the old policy has no locality."""
        return list(self._by_size)

    def preferred_now(self, resolver_id: str, now_s: float) -> str:
        """The largest data center (every resolver's ranking head)."""
        return self._by_size[0]

    def select_dc(self, resolver_id: str, now_s: float) -> str:
        """Sample a data center proportionally to its size."""
        u = self._rng.random()
        for dc_id, threshold in zip(self._ids, self._cum):
            if u <= threshold:
                return dc_id
        return self._ids[-1]


# --------------------------------------------------------------------------
# The policy registry
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PolicyContext:
    """Everything a world builder hands a policy factory.

    One context serves every registered kind: factories pick the fields
    they need and ignore the rest, so adding a policy never changes the
    :func:`repro.sim.scenarios.build_world` call site.

    Attributes:
        directory: All data centers of the world.
        rankings: Per-resolver preference order, best first.  Already
            reflects the scenario's ranking basis (RTT, or distance for
            the ``"geographic"`` kind) and its divergent-resolver
            overrides.
        eligible: DNS-eligible data-center IDs (ranking universe).
        rtt_ms: Vantage-to-data-center floor RTTs — the link-cost signal
            racing and traffic-engineering policies steer on.
        dns_capacity_per_hour: Per-data-center hourly assignment caps.
        spill_probability: Background non-preferred spill probability.
        seed: Policy RNG seed (already derived per scenario).
        ttl_s: TTL of the policy's DNS answers.
        duration_s: Simulation window — lets time-varying policies place
            epoch boundaries (e.g. a mid-week steering shift).
    """

    directory: DataCenterDirectory
    rankings: Mapping[str, Sequence[str]]
    eligible: Tuple[str, ...]
    rtt_ms: Mapping[str, float] = field(default_factory=dict)
    dns_capacity_per_hour: Mapping[str, float] = field(default_factory=dict)
    spill_probability: float = 0.0
    seed: int = 0
    ttl_s: float = DEFAULT_TTL_S
    duration_s: float = 7 * 86400.0


PolicyFactory = Callable[[PolicyContext], SelectionPolicy]

_REGISTRY: Dict[str, PolicyFactory] = {}


class UnknownPolicyError(ValueError):
    """Raised for a policy kind no factory is registered under."""

    def __init__(self, kind: object):
        self.kind = kind
        super().__init__(
            f"unknown policy {kind!r}; registered policies: "
            f"{', '.join(registered_policy_kinds())}"
        )


def register_policy(kind: str) -> Callable[[PolicyFactory], PolicyFactory]:
    """Class/function decorator binding a kind string to a policy factory.

    Raises:
        ValueError: If the kind is empty or already registered.
    """
    if not kind or not isinstance(kind, str):
        raise ValueError(f"policy kind must be a non-empty string, got {kind!r}")

    def decorate(factory: PolicyFactory) -> PolicyFactory:
        if kind in _REGISTRY:
            raise ValueError(f"policy kind {kind!r} is already registered")
        _REGISTRY[kind] = factory
        return factory

    return decorate


def _ensure_builtin_policies() -> None:
    # The literature policies register on import; importing lazily keeps
    # this module cycle-free (policies.py subclasses PreferredDcPolicy).
    import repro.cdn.policies  # noqa: F401


def registered_policy_kinds() -> Tuple[str, ...]:
    """Every registered policy kind, sorted (the spec/CLI vocabulary)."""
    _ensure_builtin_policies()
    return tuple(sorted(_REGISTRY))


def make_policy(kind: str, context: PolicyContext) -> SelectionPolicy:
    """Construct a policy by registered kind.

    Raises:
        UnknownPolicyError: For unregistered kinds (a :class:`ValueError`;
            the message names every registered policy).
    """
    _ensure_builtin_policies()
    factory = _REGISTRY.get(kind)
    if factory is None:
        raise UnknownPolicyError(kind)
    return factory(context)


@register_policy("preferred")
def _make_preferred(context: PolicyContext) -> PreferredDcPolicy:
    """The paper's inferred policy (RTT-ranked rankings)."""
    return PreferredDcPolicy(
        directory=context.directory,
        rankings=dict(context.rankings),
        dns_capacity_per_hour=dict(context.dns_capacity_per_hour),
        spill_probability=context.spill_probability,
        seed=context.seed,
        ttl_s=context.ttl_s,
    )


@register_policy("geographic")
def _make_geographic(context: PolicyContext) -> PreferredDcPolicy:
    """Distance-ranked ablation: same mechanism, distance-ordered rankings.

    The ranking basis is chosen by the world builder (it computes the
    context's rankings from great-circle distance for this kind), so the
    factory is the preferred one under another name.
    """
    return _make_preferred(context)


@register_policy("proportional")
def _make_proportional(context: PolicyContext) -> ProportionalPolicy:
    """Old-infrastructure ablation (size-proportional, no locality)."""
    # Keeps the historical default TTL (not the scenario's) — the answers
    # of the pre-Google infrastructure were not under YouTube's control.
    return ProportionalPolicy(
        directory=context.directory,
        eligible=list(context.eligible),
        seed=context.seed,
    )
