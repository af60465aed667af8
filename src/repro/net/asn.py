"""Autonomous-system registry — the simulated ``whois``.

Section IV of the paper maps every server IP to its AS with ``whois`` and
builds Table II from the result.  This module provides the registry the
world builder populates and the longest-prefix-match lookup the analysis
uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.net.ip import IPv4Network, format_ip

#: AS numbers fixed by the paper.
GOOGLE_ASN = 15169
YOUTUBE_EU_ASN = 43515
CW_ASN = 1273
GBLX_ASN = 3549


@dataclass(frozen=True)
class AutonomousSystem:
    """An autonomous system.

    Attributes:
        asn: AS number.
        name: Registry name, e.g. ``"Google Inc."``.
    """

    asn: int
    name: str


class AsRegistry:
    """IP-prefix to AS mapping with longest-prefix-match lookup.

    Lookups bucket prefixes by length and walk from the longest length down,
    which is O(number of distinct prefix lengths) per query — plenty fast
    for analysis-time use and independent of registry size.
    """

    def __init__(self) -> None:
        self._systems: Dict[int, AutonomousSystem] = {}
        # prefix_len -> {network_base -> asn}
        self._by_len: Dict[int, Dict[int, int]] = {}
        self._lens_desc: List[int] = []

    def register_as(self, asn: int, name: str) -> AutonomousSystem:
        """Register (or re-fetch) an AS by number."""
        existing = self._systems.get(asn)
        if existing is not None:
            if existing.name != name:
                raise ValueError(f"AS{asn} already registered as {existing.name!r}")
            return existing
        system = AutonomousSystem(asn, name)
        self._systems[asn] = system
        return system

    def announce(self, network: IPv4Network, asn: int) -> None:
        """Record that ``network`` is originated by ``asn``.

        Raises:
            KeyError: If the AS was never registered.
            ValueError: If the exact prefix is already announced by another AS.
        """
        if asn not in self._systems:
            raise KeyError(f"AS{asn} not registered")
        bucket = self._by_len.setdefault(network.prefix_len, {})
        previous = bucket.get(network.network)
        if previous is not None and previous != asn:
            raise ValueError(f"{network} already announced by AS{previous}")
        bucket[network.network] = asn
        if network.prefix_len not in self._lens_desc:
            self._lens_desc.append(network.prefix_len)
            self._lens_desc.sort(reverse=True)

    def whois(self, ip: int) -> Optional[AutonomousSystem]:
        """Longest-prefix-match lookup; ``None`` when unannounced."""
        for plen in self._lens_desc:
            mask = 0 if plen == 0 else ((1 << 32) - 1) ^ ((1 << (32 - plen)) - 1)
            asn = self._by_len[plen].get(ip & mask)
            if asn is not None:
                return self._systems[asn]
        return None

    def asn_of(self, ip: int) -> Optional[int]:
        """Like :meth:`whois` but returns only the AS number."""
        system = self.whois(ip)
        return None if system is None else system.asn

    def announced_networks(self, asn: int) -> List[IPv4Network]:
        """All prefixes announced by a given AS."""
        result: List[IPv4Network] = []
        for plen, bucket in self._by_len.items():
            for base, owner in bucket.items():
                if owner == asn:
                    result.append(IPv4Network(base, plen))
        result.sort(key=lambda n: (n.network, n.prefix_len))
        return result

    def describe(self, ip: int) -> str:
        """Human-readable whois line for logging and examples."""
        system = self.whois(ip)
        if system is None:
            return f"{format_ip(ip)}: no origin AS"
        return f"{format_ip(ip)}: AS{system.asn} {system.name}"
