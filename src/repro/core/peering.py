"""Peering-traffic analysis: what the trace means for the ISP's links.

The paper's motivation: "Such insights can aid ISPs in their capacity
planning decisions given that YouTube is a large and rapidly growing share
of Internet video traffic today."  This module turns a flow log plus whois
into the numbers a peering coordinator actually uses:

* per-origin-AS hourly ingress volume (which interconnect carries the
  bytes),
* the 95th-percentile rate per AS — the standard transit-billing figure,
* peak-hour ingress and the share that stays on-net (the EU2 situation:
  an in-ISP data center keeps ~40 % of YouTube bytes off the peering edge).

Everything here is computed from observables (flow records + whois), so it
runs unchanged on real traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

from repro.net.asn import AsRegistry
from repro.reporting.tables import TextTable
from repro.trace.records import Dataset


@dataclass
class AsTraffic:
    """One origin AS's contribution to the vantage point's ingress.

    Attributes:
        asn: Origin AS number (0 for unattributable addresses).
        name: Registry name.
        hourly_bytes: Bytes received per trace hour.
    """

    asn: int
    name: str
    hourly_bytes: List[int]

    @property
    def total_bytes(self) -> int:
        """Total bytes over the window."""
        return sum(self.hourly_bytes)

    @property
    def peak_hour_bytes(self) -> int:
        """Busiest hour's byte count."""
        return max(self.hourly_bytes) if self.hourly_bytes else 0

    def p95_mbps(self) -> float:
        """The 95th-percentile hourly rate in Mbit/s — the billing figure.

        Standard transit billing samples the rate, discards the top 5 % of
        samples, and bills the maximum of the rest; with hourly bins that
        is the 95th-percentile hour.

        Raises:
            ValueError: With no hours.
        """
        if not self.hourly_bytes:
            raise ValueError("no hours to bill")
        ordered = sorted(self.hourly_bytes)
        # Discard the top 5 % of samples; bill the max of the rest.
        index = max(0, math.ceil(0.95 * len(ordered)) - 1)
        return ordered[index] * 8.0 / 3600.0 / 1e6


@dataclass
class PeeringReport:
    """The vantage point's ingress, by origin AS.

    Attributes:
        dataset_name: Trace described.
        per_as: Traffic rows, byte-descending.
        num_hours: Window length in hours.
        on_net_bytes: Bytes originated inside the vantage point's own AS
            (traffic that never crosses the peering edge).
    """

    dataset_name: str
    per_as: List[AsTraffic] = field(default_factory=list)
    num_hours: int = 0
    on_net_bytes: int = 0

    @property
    def total_bytes(self) -> int:
        """All ingress bytes (on-net included)."""
        return sum(row.total_bytes for row in self.per_as)

    @property
    def on_net_fraction(self) -> float:
        """Share of bytes that stay inside the host AS."""
        total = self.total_bytes
        return self.on_net_bytes / total if total else 0.0

    def row(self, asn: int) -> AsTraffic:
        """Traffic row for one AS.

        Raises:
            KeyError: If the AS carried no traffic here.
        """
        for candidate in self.per_as:
            if candidate.asn == asn:
                return candidate
        raise KeyError(f"AS{asn} carried no traffic in {self.dataset_name}")

    def render(self, top: int = 6) -> str:
        """Text table of the biggest origin ASes."""
        table = TextTable(
            ["origin AS", "name", "GB", "share%", "peak-hour GB", "p95 Mbps"],
            title=f"PEERING INGRESS — {self.dataset_name}",
        )
        total = max(1, self.total_bytes)
        for row in self.per_as[:top]:
            table.add_row(
                f"AS{row.asn}" if row.asn else "(none)",
                row.name,
                f"{row.total_bytes / 1e9:.2f}",
                f"{100.0 * row.total_bytes / total:.1f}",
                f"{row.peak_hour_bytes / 1e9:.3f}",
                f"{row.p95_mbps():.1f}",
            )
        return table.render()


def analyze_peering(dataset: Dataset, registry: AsRegistry) -> PeeringReport:
    """Build the peering report for one trace.

    Args:
        dataset: The flow-level trace.
        registry: whois (IP → origin AS).

    Returns:
        The :class:`PeeringReport`, ASes byte-descending.
    """
    num_hours = max(1, dataset.num_hours)
    buckets: Dict[int, List[int]] = {}
    names: Dict[int, str] = {}
    for record in dataset:
        system = registry.whois(record.dst_ip)
        asn = system.asn if system is not None else 0
        if asn not in buckets:
            buckets[asn] = [0] * num_hours
            names[asn] = system.name if system is not None else "unattributed"
        hour = min(record.hour, num_hours - 1)
        buckets[asn][hour] += record.num_bytes

    rows = [
        AsTraffic(asn=asn, name=names[asn], hourly_bytes=hours)
        for asn, hours in buckets.items()
    ]
    rows.sort(key=lambda r: -r.total_bytes)
    on_net = 0
    host_asn = dataset.vantage.asn
    for row in rows:
        if row.asn == host_asn:
            on_net = row.total_bytes
    return PeeringReport(
        dataset_name=dataset.name,
        per_as=rows,
        num_hours=num_hours,
        on_net_bytes=on_net,
    )
