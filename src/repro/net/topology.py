"""Edge topology: vantage points and their internal subnets.

A vantage point models one of the paper's monitored PoPs (Section III-B):
a physical location, an access technology shared by the hosted clients, a
client address space split into internal subnets, and one local DNS
resolver per subnet group.  The Tstat-like monitor sits at the vantage
point's edge and sees every flow crossing it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional

from repro.geo.cities import City
from repro.net.dns import LocalResolver
from repro.net.ip import IPv4Network, format_ip
from repro.net.latency import AccessTechnology, Site


@dataclass
class Subnet:
    """An internal subnet of a vantage point.

    Attributes:
        name: Subnet label, e.g. ``"Net-3"`` (Figure 12 vocabulary).
        network: Client address block.
        resolver: The local DNS resolver this subnet's clients use
            (``None`` in a measured world, which holds no DNS system).
        client_share: Fraction of the vantage point's clients homed here.
    """

    name: str
    network: IPv4Network
    resolver: Optional[LocalResolver]
    client_share: float

    def __post_init__(self) -> None:
        if not 0.0 < self.client_share <= 1.0:
            raise ValueError(f"client_share out of (0, 1]: {self.client_share}")

    def contains_ip(self, ip: int) -> bool:
        """Whether a client address belongs to this subnet."""
        return ip in self.network


@dataclass
class VantagePoint:
    """A monitored network edge.

    Attributes:
        name: Dataset name (``"US-Campus"``, ``"EU2"``, ...).
        city: Physical location of the PoP.
        access: Access technology of the hosted customers.
        egress_ms: Extra one-way latency of the PoP's upstream path
            (campus egress links and ISP backhaul are not free).
        subnets: Internal subnets; their ``client_share`` values must sum
            to 1 (within rounding).
        asn: The monitored network's own AS number.  Known to the trace
            owners, and needed by the Table II analysis to recognise
            servers hosted "within the same AS where the dataset has been
            collected" (the EU2 in-ISP data center).
    """

    name: str
    city: City
    access: AccessTechnology
    egress_ms: float
    subnets: List[Subnet] = field(default_factory=list)
    asn: int = 0

    def __post_init__(self) -> None:
        if self.subnets:
            total = sum(s.client_share for s in self.subnets)
            if abs(total - 1.0) > 1e-6:
                raise ValueError(f"subnet client shares sum to {total}, expected 1.0")

    @property
    def routing_group(self) -> str:
        """Routing group shared by the probe PC and every hosted client.

        Clients and the probe PC share the PoP's upstream paths, so they
        see the same per-data-center RTT ranking — the consistency the
        preferred-data-center analysis relies on.
        """
        return f"vp:{self.name}"

    @property
    def probe_site(self) -> Site:
        """The monitoring PC's network position (for ping campaigns).

        The paper pings "from the probe PC installed in the PoP", i.e. from
        the vantage point itself, subject to the same access path as the
        clients.
        """
        return Site(
            key=f"vp:{self.name}",
            point=self.city.point,
            access=self.access,
            extra_ms=self.egress_ms,
            group=self.routing_group,
        )

    def without_resolvers(self) -> "VantagePoint":
        """This vantage point as its trace owners know it: the subnet plan
        without the resolvers, which lead into the CDN's DNS system."""
        return replace(self, subnets=[replace(s, resolver=None) for s in self.subnets])

    def client_site(self, client_ip: int) -> Site:
        """Network position of one hosted client."""
        return Site(
            key=f"client:{format_ip(client_ip)}",
            point=self.city.point,
            access=self.access,
            extra_ms=self.egress_ms,
            group=self.routing_group,
        )

    def subnet_of(self, client_ip: int) -> Optional[Subnet]:
        """The subnet containing ``client_ip``, or ``None``."""
        for subnet in self.subnets:
            if subnet.contains_ip(client_ip):
                return subnet
        return None

    def resolver_for(self, client_ip: int) -> LocalResolver:
        """The local resolver a client uses (by its subnet).

        Raises:
            LookupError: If the IP is not in any subnet.
        """
        subnet = self.subnet_of(client_ip)
        if subnet is None:
            raise LookupError(f"{format_ip(client_ip)} is not inside {self.name}")
        return subnet.resolver
