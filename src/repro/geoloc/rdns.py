"""Reverse-DNS geolocation baseline.

Adhikari et al. located the *old* YouTube infrastructure by parsing data
center identifiers out of server hostnames.  The paper notes "this approach
is not applicable to the new YouTube infrastructure, where DNS reverse
lookup is not allowed" (Section V).  We model both halves: legacy servers
get airport-coded PTR names; Google-AS servers have no PTR record at all.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from repro.cdn.datacenter import DataCenter

#: IATA-style codes for the cities that host legacy infrastructure.
CITY_AIRPORT_CODES: Dict[str, str] = {
    "Amsterdam": "ams",
    "London": "lhr",
    "Mountain View": "sjc",
    "Paris": "cdg",
    "Frankfurt": "fra",
    "New York": "lga",
    "Chicago": "ord",
    "Dallas": "dfw",
    "Ashburn": "iad",
    "Tokyo": "nrt",
    "Sydney": "syd",
    "Sao Paulo": "gru",
    "Miami": "mia",
    "Seattle": "sea",
    "Milan": "mxp",
}


@dataclass
class ReverseDnsTable:
    """PTR records of the simulated world.

    Attributes:
        records: Mapping from integer IPv4 to PTR hostname.  Addresses with
            no entry behave like the new infrastructure: NXDOMAIN.
    """

    records: Dict[int, str] = field(default_factory=dict)

    def lookup(self, ip: int) -> Optional[str]:
        """PTR hostname for an address, or ``None`` (NXDOMAIN)."""
        return self.records.get(ip)

    def __len__(self) -> int:
        return len(self.records)


def build_reverse_dns(legacy_dcs: Iterable[DataCenter]) -> ReverseDnsTable:
    """PTR records for the legacy fleets; nothing for the new infrastructure.

    Legacy names follow the old YouTube convention of embedding the site's
    airport code, e.g. ``v03.lscache-ams.youtube.com``.

    Raises:
        KeyError: If a legacy data center's city has no airport code.
    """
    table = ReverseDnsTable()
    for dc in legacy_dcs:
        code = CITY_AIRPORT_CODES.get(dc.city.name)
        if code is None:
            raise KeyError(f"no airport code for legacy city {dc.city.name!r}")
        for server in dc.servers:
            shard = zlib.crc32(str(server.ip).encode()) % 24
            table.records[server.ip] = f"v{shard:02d}.lscache-{code}.youtube.com"
    return table
