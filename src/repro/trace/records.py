"""Flow-log record schema and the dataset container.

A :class:`FlowRecord` carries exactly the observables the paper's Tstat logs
expose — nothing from the simulator's ground truth (which data center served,
why a redirect happened) leaks into it.  The analysis pipeline must re-infer
those the way the authors did.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List

from repro.net.ip import format_ip
from repro.net.topology import VantagePoint

if TYPE_CHECKING:
    from repro.trace.columnar import FlowTable

#: One simulated trace week, in seconds.
WEEK_S = 7 * 86400.0


@dataclass(frozen=True)
class FlowRecord:
    """One line of the flow-level log.

    Attributes:
        src_ip: Client address (integer IPv4) — the PoP-internal endpoint.
        dst_ip: Server address (integer IPv4).
        num_bytes: Bytes transferred server-to-client.
        t_start: Flow start time, seconds from trace start.
        t_end: Flow end time, seconds from trace start.
        video_id: The 11-character VideoID Tstat extracts from the HTTP
            request.
        resolution: Requested resolution label (``"360p"``).
    """

    src_ip: int
    dst_ip: int
    num_bytes: int
    t_start: float
    t_end: float
    video_id: str
    resolution: str

    def __post_init__(self) -> None:
        if self.t_end < self.t_start:
            raise ValueError("flow ends before it starts")
        if self.num_bytes < 0:
            raise ValueError("negative byte count")

    @property
    def duration_s(self) -> float:
        """Flow duration in seconds."""
        return self.t_end - self.t_start

    @property
    def hour(self) -> int:
        """Trace hour the flow started in (Figure 9/11/15 binning)."""
        return int(self.t_start // 3600.0)

    @property
    def src_str(self) -> str:
        """Dotted-quad client address."""
        return format_ip(self.src_ip)


@dataclass
class Dataset:
    """One vantage point's collected trace plus its public metadata.

    The metadata mirrors what the paper's authors knew about their own
    vantage points: where the probe PC sits (for active RTT measurements),
    the access technology, and the internal subnet plan (Figure 12 needs
    it).  It does *not* include anything about the CDN side.

    Attributes:
        name: Dataset name (``"US-Campus"``...).
        vantage: The monitored vantage point.
        table: The flows, as a :class:`~repro.trace.columnar.FlowTable`
            sorted by start time.
        duration_s: Collection window length.
    """

    name: str
    vantage: VantagePoint
    table: "FlowTable"
    duration_s: float = WEEK_S

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")

    def __len__(self) -> int:
        return len(self.table)

    def __iter__(self) -> Iterator[FlowRecord]:
        return iter(self.table)

    @property
    def records(self) -> List[FlowRecord]:
        """The flows as records, for record-level consumers (built once)."""
        return self.table.records

    @property
    def num_hours(self) -> int:
        """Number of whole hours in the collection window."""
        return int(self.duration_s // 3600.0)

    @property
    def total_bytes(self) -> int:
        """Total downloaded volume (Table I's ``Volume`` column)."""
        return int(self.table.columns().num_bytes.sum())

    @property
    def server_ips(self) -> List[int]:
        """Distinct server addresses, sorted (Table I's ``#Servers``)."""
        return self.table.dst_codes()[0].tolist()

    @property
    def client_ips(self) -> List[int]:
        """Distinct client addresses, sorted (Table I's ``#Clients``)."""
        return sorted(set(self.table.columns().src_ip.tolist()))

    def content_digest(self) -> str:
        """SHA-256 over the canonical flow-log serialisation of the flows.

        Two datasets digest equal iff their flow logs are byte-identical
        (the serialisation round-trips floats exactly); the determinism
        tests compare pooled and in-process runs with this.
        """
        from repro.trace.logio import update_digest

        digest = hashlib.sha256()
        update_digest(digest, self.table)
        return digest.hexdigest()
