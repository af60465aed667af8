"""IP-to-location database baseline (the Maxmind failure mode).

Section V: "according to the Maxmind database, all YouTube content servers
found in the datasets should be located in Mountain View, California, USA"
— which the RTT measurements immediately falsify.  This module builds a
database with exactly that behaviour: correct for ordinary ISP space
(databases are "fairly accurate for IPs belonging to commercial ISPs"),
useless for the internals of a large corporate network whose prefixes are
all registered at headquarters.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.geo.cities import City, WorldAtlas, default_atlas
from repro.net.asn import AsRegistry, GOOGLE_ASN, YOUTUBE_EU_ASN
from repro.net.ip import IPv4Network


class GeoDatabase:
    """Longest-prefix-match IP-to-city database."""

    def __init__(self) -> None:
        self._by_len: Dict[int, Dict[int, City]] = {}
        self._lens_desc: List[int] = []

    def add(self, network: IPv4Network, city: City) -> None:
        """Register a prefix's claimed location (overwrites duplicates)."""
        bucket = self._by_len.setdefault(network.prefix_len, {})
        bucket[network.network] = city
        if network.prefix_len not in self._lens_desc:
            self._lens_desc.append(network.prefix_len)
            self._lens_desc.sort(reverse=True)

    def lookup(self, ip: int) -> Optional[City]:
        """The claimed city of an address, or ``None`` when uncovered."""
        for plen in self._lens_desc:
            mask = 0 if plen == 0 else ((1 << 32) - 1) ^ ((1 << (32 - plen)) - 1)
            city = self._by_len[plen].get(ip & mask)
            if city is not None:
                return city
        return None

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._by_len.values())


def build_reference_geodb(
    registry: AsRegistry,
    atlas: Optional[WorldAtlas] = None,
    corporate_asns: Tuple[int, ...] = (GOOGLE_ASN, YOUTUBE_EU_ASN),
    headquarters_city: str = "Mountain View",
) -> GeoDatabase:
    """Build the Maxmind-style database for a simulated world.

    Every prefix announced by a *corporate* AS is pinned to the corporation's
    headquarters (the documented failure); everything else the registry
    knows about is left uncovered here — ISP client space is added by
    callers that know the true PoP locations, mirroring how commercial
    databases really are accurate for access networks.

    Args:
        registry: The world's AS registry.
        atlas: City atlas (defaults to the shared one).
        corporate_asns: ASes whose space is pinned to headquarters.
        headquarters_city: Where the database claims all corporate IPs live.

    Returns:
        The populated :class:`GeoDatabase`.
    """
    if atlas is None:
        atlas = default_atlas()
    hq = atlas.get(headquarters_city)
    db = GeoDatabase()
    for asn in corporate_asns:
        for network in registry.announced_networks(asn):
            db.add(network, hq)
    return db
