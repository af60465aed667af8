"""DNS resolution machinery.

Section II of the paper: the video page embeds a content-server *name*; the
client resolves it through its **local DNS server**, and YouTube's
authoritative servers exploit that resolution step to route clients
("the DNS resolution is exploited by YouTube to route clients to appropriate
servers according to various YouTube policies").

Crucially, the authoritative answer depends on *which local resolver asks*
— that is what produces the Figure 12 effect where one campus subnet
(Net-3) with its own resolvers lands on a different preferred data center.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Protocol, Tuple


@dataclass(frozen=True)
class Answer:
    """A DNS A-record answer.

    Attributes:
        ip: Resolved address (integer IPv4).
        ttl_s: Time-to-live in seconds.
    """

    ip: int
    ttl_s: float


class NameMapper(Protocol):
    """The policy interface the authoritative server delegates to.

    Implemented by :class:`repro.cdn.selection.SelectionPolicy` subclasses;
    the DNS layer itself stays mechanism-only.
    """

    def map_name(self, hostname: str, resolver_id: str, now_s: float) -> Answer:
        """Resolve ``hostname`` for the given querying resolver at ``now_s``."""
        ...

    def assign(self, shard: int, resolver_id: str, now_s: float) -> Any:
        """:meth:`map_name` for a known name shard, returning the server itself."""
        ...


@dataclass
class AuthoritativeServer:
    """YouTube's authoritative DNS: delegates every query to the policy.

    Attributes:
        mapper: Selection policy that actually picks the answer.
        queries: Total queries served (for diagnostics).
    """

    mapper: NameMapper
    queries: int = 0

    def resolve(self, hostname: str, resolver_id: str, now_s: float) -> Answer:
        """Answer one query from a local resolver."""
        self.queries += 1
        return self.mapper.map_name(hostname, resolver_id, now_s)

    def resolve_shard(self, shard: int, resolver_id: str, now_s: float) -> Any:
        """:meth:`resolve` for a known name shard: the answered server itself."""
        self.queries += 1
        return self.mapper.assign(shard, resolver_id, now_s)


@dataclass
class LocalResolver:
    """A network's local caching resolver.

    Clients in a subnet share one of these; the resolver's identity is the
    routing key the authoritative policy sees.

    Attributes:
        resolver_id: Stable identity, e.g. ``"us-campus/net-3"``.
        authoritative: Upstream authoritative server.
        cache_enabled: Whether answers are cached for their TTL.  The
            default is off: YouTube used very short TTLs precisely so the
            authoritative policy retains per-request control, and disabling
            the cache keeps the load-shaping policies exact.  Enable it to
            study TTL effects.
    """

    resolver_id: str
    authoritative: AuthoritativeServer
    cache_enabled: bool = False
    _cache: Dict[str, Tuple[Answer, float]] = field(default_factory=dict, repr=False)
    hits: int = 0
    misses: int = 0

    def query(self, hostname: str, now_s: float) -> Answer:
        """Resolve a hostname on behalf of a client."""
        if self.cache_enabled:
            cached = self._cache.get(hostname)
            if cached is not None:
                answer, expiry = cached
                if now_s < expiry:
                    self.hits += 1
                    return answer
                del self._cache[hostname]
        self.misses += 1
        answer = self.authoritative.resolve(hostname, self.resolver_id, now_s)
        if self.cache_enabled and answer.ttl_s > 0:
            self._cache[hostname] = (answer, now_s + answer.ttl_s)
        return answer

    def forward_shard(self, shard: int, now_s: float) -> Any:
        """An uncached :meth:`query` for a name whose shard the caller knows.

        Counts the miss and asks the authoritative server, which answers
        with the shard's server instead of an address to look up again.
        Only valid without a cache: a cached answer is keyed by hostname.
        """
        self.misses += 1
        return self.authoritative.resolve_shard(shard, self.resolver_id, now_s)
