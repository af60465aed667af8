"""AS-level breakdown of server traffic (Section IV, Table II).

"We employ the whois tool to map the server IP address to the corresponding
AS" — here the whois tool is the world's :class:`~repro.net.asn.AsRegistry`.
The four Table II groups: the Google AS (15169), the YouTube-EU AS (43515),
servers inside the *same AS* the dataset was collected in (the EU2 in-ISP
data center), and everything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.net.asn import AsRegistry, GOOGLE_ASN, YOUTUBE_EU_ASN
from repro.reporting.tables import TextTable, format_fraction
from repro.trace.records import Dataset

#: Table II column groups, in the paper's order.
AS_GROUPS = ("google", "youtube_eu", "same_as", "others")


@dataclass(frozen=True)
class AsBreakdown:
    """One Table II row: per-group server and byte shares.

    Attributes:
        name: Dataset name.
        server_fractions: Group → fraction of distinct servers.
        byte_fractions: Group → fraction of bytes.
    """

    name: str
    server_fractions: Dict[str, float]
    byte_fractions: Dict[str, float]

    def share(self, group: str) -> Tuple[float, float]:
        """(server fraction, byte fraction) for a group.

        Raises:
            KeyError: For an unknown group name.
        """
        if group not in AS_GROUPS:
            raise KeyError(f"unknown AS group: {group!r}")
        return self.server_fractions[group], self.byte_fractions[group]


def _group_of(asn: int, vantage_asn: int) -> str:
    if asn == vantage_asn:
        # The paper's "Same AS" column takes precedence: the EU2 data
        # center lives inside the host ISP's AS, not in Google's.
        return "same_as"
    if asn == GOOGLE_ASN:
        return "google"
    if asn == YOUTUBE_EU_ASN:
        return "youtube_eu"
    return "others"


def breakdown_by_as(dataset: Dataset, registry: AsRegistry) -> AsBreakdown:
    """Compute the Table II row for one dataset.

    Raises:
        ValueError: On an empty dataset.
    """
    # Deferred: the fold module builds on this module's types.
    from repro.core.folds import TrafficAccumulator

    return TrafficAccumulator(dataset.table).as_breakdown(
        dataset.name, dataset.vantage.asn, registry
    )


def render_table2(breakdowns: Iterable[AsBreakdown]) -> str:
    """Render Table II."""
    table = TextTable(
        [
            "Dataset",
            "Google srv%", "Google byte%",
            "YT-EU srv%", "YT-EU byte%",
            "SameAS srv%", "SameAS byte%",
            "Other srv%", "Other byte%",
        ],
        title="TABLE II — PERCENTAGE OF SERVERS AND BYTES RECEIVED PER AS",
    )
    for b in breakdowns:
        cells: List[str] = [b.name]
        for group in AS_GROUPS:
            srv, byt = b.share(group)
            cells.append(format_fraction(srv))
            cells.append(format_fraction(byt, 2))
        table.add_row(*cells)
    return table.render()
