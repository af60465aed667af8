"""What a simulated week leaves behind: measured world, flows and truth.

A :class:`SimulationResult` is what the driver caches for each week and
what every study reads.  It holds only what the paper's method could see
-- the :class:`MeasuredWorld` and the flow log -- plus the simulator's
answers in :class:`GroundTruthLog` and a few tallies, which only
``--validate``, ``repro eval`` and the what-if metrics read.  Nothing here
refers to the CDN model, so reading a cached week loads none of it.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.geo.coords import GeoPoint
from repro.net.asn import AsRegistry
from repro.net.ip import format_ip
from repro.net.latency import AccessTechnology, LatencyModel, Site
from repro.net.topology import VantagePoint
from repro.trace.records import Dataset

#: Ground-truth attribution labels, mirroring the blind pipeline's
#: three-way verdict (:func:`repro.core.nonpreferred.session_verdicts`).
TRUTH_PREFERRED = "preferred"
TRUTH_DNS = "dns"
TRUTH_REDIRECTION = "redirection"

#: All truth labels, in confusion-matrix display order.
TRUTH_LABELS: Tuple[str, ...] = (TRUTH_PREFERRED, TRUTH_DNS, TRUTH_REDIRECTION)


@dataclass(frozen=True)
class ServerTable:
    """The data center of every server address, as runs of addresses.

    A fleet fills consecutive addresses of its /24s, so the table keeps
    one ``[start, stop)`` run per stretch of consecutive addresses of one
    data center, not one entry per server.

    Attributes:
        dc_ids: Every data center, in directory order.
        starts: First address of each run, ascending.
        stops: One past the last address of each run.
        owners: Index into :attr:`dc_ids` of each run's data center.
    """

    dc_ids: Tuple[str, ...]
    starts: Tuple[int, ...]
    stops: Tuple[int, ...]
    owners: Tuple[int, ...]

    @classmethod
    def build(cls, fleets: Iterable[Tuple[str, Sequence[int]]]) -> "ServerTable":
        """The table of ``(dc_id, server addresses)`` pairs."""
        dc_ids: List[str] = []
        rows: List[Tuple[int, int]] = []
        for index, (dc_id, ips) in enumerate(fleets):
            dc_ids.append(dc_id)
            rows.extend((ip, index) for ip in ips)
        rows.sort()
        starts: List[int] = []
        stops: List[int] = []
        owners: List[int] = []
        for ip, index in rows:
            if owners and owners[-1] == index and stops[-1] == ip:
                stops[-1] = ip + 1
            else:
                starts.append(ip)
                stops.append(ip + 1)
                owners.append(index)
        return cls(tuple(dc_ids), tuple(starts), tuple(stops), tuple(owners))

    def index_of(self, server_ip: int) -> Optional[int]:
        """Index into :attr:`dc_ids` of the address's data center, or ``None``."""
        run = bisect_right(self.starts, server_ip) - 1
        if run < 0 or server_ip >= self.stops[run]:
            return None
        return self.owners[run]


@dataclass(frozen=True)
class MeasuredWorld:
    """What a measurement can observe of a simulated world.

    The blind pipeline's whole view of a week's world: the vantage point
    (its location, access, AS and subnet plan, without resolvers), the
    whois registry, the latency model active probes run over, and where
    each server address physically sits -- pinging an address reaches
    the machine wherever it is.  It holds no CDN, policy or workload.

    Attributes:
        vantage: The monitored vantage point, without its resolvers.
        registry: The AS registry (the simulated whois).
        latency: The shared delay model.
        duration_s: Collection window.
        servers: The data center of every server address.
        dc_points: Each data center's position, parallel to
            ``servers.dc_ids``.
    """

    vantage: VantagePoint
    registry: AsRegistry
    latency: LatencyModel
    duration_s: float
    servers: ServerTable
    dc_points: Tuple[GeoPoint, ...]

    def site_of_server_ip(self, server_ip: int) -> Optional[Site]:
        """Network position of a server address seen in the trace, or ``None``."""
        index = self.servers.index_of(server_ip)
        if index is None:
            return None
        return Site(
            key=f"srv:{format_ip(server_ip)}",
            point=self.dc_points[index],
            access=AccessTechnology.DATACENTER,
            group=self.servers.dc_ids[index],
        )


def _code(values: Sequence) -> Tuple[tuple, np.ndarray]:
    """``(sorted distinct values, code per value)``, codes in the smallest
    unsigned integer type that holds them."""
    distinct = sorted(set(values))
    dtype = np.min_scalar_type(max(len(distinct) - 1, 0))
    code_of = {value: code for code, value in enumerate(distinct)}
    return tuple(distinct), np.fromiter(map(code_of.__getitem__, values), dtype, len(values))


def _decode(distinct: tuple, codes: np.ndarray) -> list:
    return [distinct[code] for code in codes.tolist()]


class GroundTruthLog:
    """The simulator's answers for one week, which the blind pipeline never sees.

    Per request, as columns frozen when the week finishes: the requesting
    client, the video, the request time, and three data centers -- the
    ``anchor`` (the policy's intended data center for the vantage point's
    reference resolver at that moment, the simulator-side counterpart of
    the one preferred data center the pipeline infers per dataset), the
    one the DNS answer pointed at, and the one that served the video.
    Each request's label is :data:`TRUTH_DNS` when the DNS answer itself
    left the anchor, :data:`TRUTH_REDIRECTION` when DNS agreed with the
    anchor but the redirect chain left it, and :data:`TRUTH_PREFERRED`
    otherwise.  Every column but the time is stored as codes into its
    distinct values; the columns are read back as lists, built on first
    use.

    Per week: :attr:`preferred_dc` and :meth:`dc_of_server`.
    """

    _STORED = (
        "_t_s", "_clients", "_client_code", "_videos", "_video_code", "_dcs", "_dc_code",
        "_label_code", "preferred_dc", "servers",
    )

    def __init__(self, t_s, clients, client_code, videos, video_code, dcs, dc_code,
                 label_code, preferred_dc: Optional[str], servers: ServerTable):
        self._t_s = t_s
        self._clients = clients
        self._client_code = client_code
        self._videos = videos
        self._video_code = video_code
        self._dcs = dcs
        self._dc_code = dc_code
        self._label_code = label_code
        #: The first subnet's resolver's top-ranked data center at the end
        #: of the week, or the most-served data center when the policy has
        #: no ranking for it (``None`` for an empty week).
        self.preferred_dc = preferred_dc
        #: The data center of every server address.
        self.servers = servers

    @classmethod
    def freeze(
        cls,
        client_ips: Sequence[int],
        video_ids: Sequence[str],
        t_s: Sequence[float],
        anchor_dcs: Sequence[str],
        dns_dcs: Sequence[str],
        served_dcs: Sequence[str],
        labels: Sequence[str],
        preferred_dc: Optional[str],
        servers: ServerTable,
    ) -> "GroundTruthLog":
        """The log of seven parallel per-request lists (see the class)."""
        n = len(labels)
        dcs, dc_code = _code([*anchor_dcs, *dns_dcs, *served_dcs])
        label_of = {label: code for code, label in enumerate(TRUTH_LABELS)}
        return cls(
            np.fromiter(t_s, np.float64, n),
            *_code(client_ips),
            *_code(video_ids),
            dcs,
            dc_code.reshape(3, n),
            np.fromiter(map(label_of.__getitem__, labels), np.uint8, n),
            preferred_dc,
            servers,
        )

    def __reduce__(self):
        return GroundTruthLog, tuple(getattr(self, name) for name in self._STORED)

    def __len__(self) -> int:
        return len(self._label_code)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroundTruthLog):
            return NotImplemented
        return self._lists() == other._lists()

    def _lists(self):
        return (
            self.client_ips, self.video_ids, self.t_s, self.labels,
            [_decode(self._dcs, row) for row in self._dc_code],
            self.preferred_dc, self.servers,
        )

    @cached_property
    def client_ips(self) -> List[int]:
        """Requesting client address per request."""
        return _decode(self._clients, self._client_code)

    @cached_property
    def video_ids(self) -> List[str]:
        """Requested video per request."""
        return _decode(self._videos, self._video_code)

    @cached_property
    def t_s(self) -> List[float]:
        """Request time per request."""
        return self._t_s.tolist()

    @cached_property
    def anchor_dcs(self) -> List[str]:
        """The anchor (intended/preferred) data center per request."""
        return _decode(self._dcs, self._dc_code[0])

    @cached_property
    def labels(self) -> List[str]:
        """Attribution label per request."""
        return _decode(TRUTH_LABELS, self._label_code)

    def dc_of_server(self, server_ip: int) -> Optional[str]:
        """The data center owning a server address, or ``None``."""
        index = self.servers.index_of(server_ip)
        return None if index is None else self.servers.dc_ids[index]


@dataclass
class SimulationResult:
    """A finished scenario run: one cached week.

    Attributes:
        world: What a measurement can observe of the world that was run
            (the active measurements need its physical side).
        dataset: The collected flow-level trace.
        requests: Number of requests processed.
        cause_counts: Ground-truth redirect-cause tally (tests only — the
            analysis pipeline never reads it).
        dns_dc_counts: Ground-truth DNS-assignment tally per data center.
        served_dc_counts: Ground-truth serve tally per data center.
        startup_delay_samples: Per-request video startup delays in seconds
            (time from the request until the video flow's first byte) — the
            user-performance metric what-if comparisons report.
        serving_rtt_samples: Floor RTT (ms) between each client and the
            server that delivered its video.
        truth: The simulator's answers (:class:`GroundTruthLog`), set
            when the week finishes — read only by validation, attribution
            scoring and the what-if metrics; the blind analysis pipeline
            never sees it.
    """

    world: MeasuredWorld
    dataset: Optional[Dataset]
    requests: int
    cause_counts: Counter = field(default_factory=Counter)
    dns_dc_counts: Counter = field(default_factory=Counter)
    served_dc_counts: Counter = field(default_factory=Counter)
    startup_delay_samples: List[float] = field(default_factory=list)
    serving_rtt_samples: List[float] = field(default_factory=list)
    truth: Optional[GroundTruthLog] = None
