"""The assembled CDN: request handling from DNS answer to flow events.

:class:`CdnSystem` ties the catalog, data centers, placement, DNS policy and
redirection engine together and turns one user video request into the group
of TCP flows an edge monitor would observe — exactly the observable unit the
paper's session analysis works on (Section VI-A: control flows carrying
signalling vs. video flows carrying content).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.cdn.catalog import Resolution, Video, VideoCatalog, hostname_for_video, shard_of
from repro.cdn.datacenter import ContentServer, DataCenter, DataCenterDirectory
from repro.cdn.redirection import RedirectionEngine, ServeDecision
from repro.cdn.selection import SelectionPolicy
from repro.cdn.store import ContentPlacement
from repro.net.dns import LocalResolver
from repro.net.latency import AccessTechnology, LatencyModel, Site

#: Flow kinds (ground truth; the trace schema does not carry them — the
#: analysis re-derives control vs. video from flow size, as the paper does).
KIND_CONTROL = "control"
KIND_VIDEO = "video"
KIND_ASSET = "asset"

#: Control-flow size range, bytes.  Below the paper's 1000-byte threshold.
_CONTROL_BYTES = (280, 950)

#: Smallest video flow emitted, bytes (an aborted playback still moves more
#: than a control exchange).
_MIN_VIDEO_BYTES = 20_000

#: Sustained client goodput by access technology, bits/s.
_GOODPUT_BPS: Dict[AccessTechnology, float] = {
    AccessTechnology.ADSL: 4.0e6,
    AccessTechnology.FTTH: 18.0e6,
    AccessTechnology.CAMPUS: 35.0e6,
    AccessTechnology.BACKBONE: 25.0e6,
    AccessTechnology.DATACENTER: 50.0e6,
}


#: Resolution label of legacy/third-party asset flows.
_ASSET_LABEL = Resolution.R240.label

#: One flow as it leaves a request: :class:`FlowEvent`'s fields, in order.
Flow = Tuple[float, float, int, int, int, str, str, str]


def check_cdn_args(
    legacy_probability: float = 0.0,
    third_party_probability: float = 0.0,
    fragment_probability: float = 0.07,
) -> None:
    """The range checks :class:`CdnSystem` runs on its probabilities."""
    for name, value in (
        ("legacy_probability", legacy_probability),
        ("third_party_probability", third_party_probability),
        ("fragment_probability", fragment_probability),
    ):
        if not 0.0 <= value < 1.0:
            raise ValueError(f"{name} must be in [0, 1), got {value!r}")


@dataclass
class FlowEvent:
    """One observed TCP flow between a client and a content server.

    :meth:`CdnSystem.handle_request` returns flows in this form; the
    request loop hands them to the monitor as plain :data:`Flow` tuples,
    which it converts into the flow-log record schema
    (:mod:`repro.trace.records`).

    Attributes:
        t_start: Flow start, seconds from trace start.
        t_end: Flow end, seconds from trace start.
        client_ip: Client address (integer IPv4).
        server_ip: Server address (integer IPv4).
        num_bytes: Bytes transferred server-to-client.
        video_id: The VideoID the Flash plugin requested.
        resolution: Resolution label (``"360p"``).
        kind: Ground-truth flow kind (control/video/asset).
    """

    t_start: float
    t_end: float
    client_ip: int
    server_ip: int
    num_bytes: int
    video_id: str
    resolution: str
    kind: str


@dataclass
class RequestOutcome:
    """Everything produced by one user video request.

    Attributes:
        events: Flow events in time order.
        decision: The redirection engine's hop chain (ground truth).
        dns_dc_id: Data center the DNS answer pointed at.
        served_dc_id: Data center that actually delivered the video.
    """

    events: List[FlowEvent]
    decision: ServeDecision
    dns_dc_id: str
    served_dc_id: str


class ServingClient(NamedTuple):
    """What every request of one client shares (see :meth:`CdnSystem.serve`).

    Attributes:
        client_ip: The client's address.
        floors: Floor RTT to each data center, shared by the client's
            whole latency class.
        goodput_bps: Sustained goodput of the client's access technology.
        resolver: The client's local DNS resolver.
        ranking: The policy's data-center ranking for that resolver.
    """

    client_ip: int
    floors: "_Floors"
    goodput_bps: float
    resolver: LocalResolver
    ranking: List[str]


class CdnSystem:
    """The simulated YouTube CDN.

    Args:
        catalog: Video catalog.
        directory: All data centers (Google, legacy, in-ISP, third-party).
        placement: Content residency tracker over the *Google-side* data
            centers (the ones DNS policies rank).
        policy: DNS-level selection policy.
        redirection: Application-layer redirection engine.
        latency: Shared delay model.
        num_shards: Content hostname shard count.
        legacy_dcs: Legacy YouTube-EU data centers serving small leftover
            assets (the AS 43515 rows of Table II).
        third_party_dcs: Other-AS server pools (CW/GBLX rows of Table II).
        legacy_probability: Chance a request also triggers a legacy asset
            flow.
        third_party_probability: Chance of a third-party asset flow.
        fragment_probability: Chance a video download is split over two
            back-to-back TCP connections (player reconnects, TCP resets) —
            the source of the paper's >2-flow sessions ("They account for
            5.18-10% of the total number of sessions", Section VI-C).
    """

    #: Serving's stateless half (:class:`_ServingTables`), built on first
    #: use.
    _tables: Optional["_ServingTables"] = None

    def __init__(
        self,
        catalog: VideoCatalog,
        directory: DataCenterDirectory,
        placement: ContentPlacement,
        policy: SelectionPolicy,
        redirection: RedirectionEngine,
        latency: LatencyModel,
        num_shards: int,
        legacy_dcs: Optional[Sequence[DataCenter]] = None,
        third_party_dcs: Optional[Sequence[DataCenter]] = None,
        legacy_probability: float = 0.0,
        third_party_probability: float = 0.0,
        fragment_probability: float = 0.07,
    ):
        self.catalog = catalog
        self.directory = directory
        self.placement = placement
        self.policy = policy
        self.redirection = redirection
        self.latency = latency
        self.num_shards = num_shards
        self._legacy_servers: List[ContentServer] = [
            s for dc in (legacy_dcs or []) for s in dc.servers
        ]
        self._legacy_dc_by_id = {dc.dc_id: dc for dc in (legacy_dcs or [])}
        self._third_party_servers: List[ContentServer] = [
            s for dc in (third_party_dcs or []) for s in dc.servers
        ]
        self._third_party_dc_by_id = {dc.dc_id: dc for dc in (third_party_dcs or [])}
        check_cdn_args(legacy_probability, third_party_probability, fragment_probability)
        self._legacy_probability = legacy_probability
        self._third_party_probability = third_party_probability
        self._fragment_probability = fragment_probability

    # ------------------------------------------------------------- plumbing

    def server_site(self, server: ContentServer) -> Site:
        """Network position of any known server (Google, legacy or other)."""
        dc = self.directory.dc_of_server(server.ip)
        if dc is None:
            dc = self._legacy_dc_by_id.get(server.dc_id) or self._third_party_dc_by_id.get(
                server.dc_id
            )
        if dc is None:
            raise KeyError(f"server {server.ip_str} belongs to no known data center")
        return dc.server_site(server)

    # ----------------------------------------------------------- precompute

    def _serving_tables(self) -> "_ServingTables":
        tables = self._tables
        if tables is None:
            tables = self._tables = _ServingTables(self)
        return tables

    def serving_client(self, client_ip: int, site: Site, resolver: LocalResolver) -> ServingClient:
        """The stateless half of every request ``client_ip`` makes from ``site``."""
        return self._serving_tables().client(client_ip, site, resolver)

    # --------------------------------------------------------------- request

    def handle_request(
        self,
        client_ip: int,
        client_site: Site,
        resolver: LocalResolver,
        video: Video,
        resolution: Resolution,
        t_s: float,
        rng: random.Random,
        watch_fraction: Optional[float] = None,
    ) -> RequestOutcome:
        """Serve one user video request end to end.

        Follows the paper's Section II sequence: the page hands the plugin a
        sharded content hostname, the client resolves it through its local
        resolver, contacts the answered server, and follows any
        application-layer redirects until a server delivers the video.

        Args:
            client_ip: Requesting client address.
            client_site: The client's network position.
            resolver: The client's local DNS resolver.
            video: Requested video.
            resolution: Requested resolution.
            t_s: Request time, seconds from trace start.
            rng: Workload RNG (owned by the caller/driver).
            watch_fraction: Override the sampled watch fraction (used by
                deterministic experiments).

        Returns:
            The :class:`RequestOutcome` with all flows the monitor will see.
        """
        flows: List[Flow] = []
        client = self.serving_client(client_ip, client_site, resolver)
        decision = self.serve(client, video, resolution, t_s, rng, flows, watch_fraction)
        return RequestOutcome(
            events=[FlowEvent(*flow) for flow in flows],
            decision=decision,
            dns_dc_id=decision.hops[0].dc_id,
            served_dc_id=decision.serving_server.dc_id,
        )

    def serve(
        self,
        client: ServingClient,
        video: Video,
        resolution: Resolution,
        t_s: float,
        rng: random.Random,
        flows: List[Flow],
        watch_fraction: Optional[float] = None,
    ) -> ServeDecision:
        """The stateful half of :meth:`handle_request`.

        Resolves, routes and times one request, appending its flows to
        ``flows`` as :data:`Flow` tuples in time order.  What consumes no
        randomness and is shared between requests comes precomputed in
        ``client``; the policy, redirection and ``rng`` draws happen in
        the order the Section II sequence makes them.

        Returns:
            The redirection engine's hop chain; its first hop is the
            server the DNS answer pointed at.
        """
        src_ip, floors, goodput_bps, resolver, ranking = client
        video_id = video.video_id
        shard = shard_of(video_id, self.num_shards)
        label = self._serving_tables().labels[resolution]

        # A cached answer is keyed by hostname, so only a caching resolver
        # needs one.  Without a cache, the shard goes straight to the
        # policy: no name to format and parse back, no address to look up
        # again (a seventh of the serving loop).
        if resolver.cache_enabled:
            hostname = hostname_for_video(video_id, self.num_shards)
            first_server = self.directory.server_at(resolver.query(hostname, t_s).ip)
        else:
            first_server = resolver.forward_shard(shard, t_s)
        if first_server is None:
            raise LookupError(f"DNS answered an unknown server for video {video_id}")
        decision = self.redirection.route(first_server, video, ranking, t_s, shard=shard)

        hops = decision.hops
        cursor = t_s
        for hop in hops[:-1]:
            # A redirect: one control exchange, then the next connection.
            t_end = cursor + (2.0 * (floors.of(hop) / 1000.0) + rng.uniform(0.01, 0.08))
            num_bytes = rng.randint(*_CONTROL_BYTES)
            flows.append((cursor, t_end, src_ip, hop.ip, num_bytes, video_id, label, KIND_CONTROL))
            cursor = t_end + rng.uniform(0.05, 0.35)

        if watch_fraction is None:
            # Many viewers watch to the end; the rest abandon part-way.
            watch_fraction = 1.0 if rng.random() < 0.40 else rng.uniform(0.05, 1.0)
        num_bytes = max(_MIN_VIDEO_BYTES, int(video.size_bytes(resolution) * watch_fraction))
        goodput = goodput_bps * rng.uniform(0.55, 1.1)
        duration = num_bytes * 8.0 / goodput + rng.uniform(0.1, 0.5)
        if (
            self._fragment_probability
            and num_bytes >= 4 * _MIN_VIDEO_BYTES
            and rng.random() < self._fragment_probability
        ):
            # The player reconnects mid-download (same server): two video
            # flows whose gap is well under the session threshold.
            split = rng.uniform(0.25, 0.75)
            # Split the span the unsplit flow's end minus start covers,
            # rounding included, not the drawn duration.
            duration = (cursor + duration) - cursor
            first_end = cursor + duration * split
            second_start = first_end + rng.uniform(0.05, 0.4)
            first_bytes = int(num_bytes * split)
            parts = (
                (cursor, first_end, first_bytes),
                (second_start, second_start + duration * (1.0 - split), num_bytes - first_bytes),
            )
        else:
            parts = ((cursor, cursor + duration, num_bytes),)
        dst_ip = hops[-1].ip
        for start, end, size in parts:
            flows.append((start, end, src_ip, dst_ip, size, video_id, label, KIND_VIDEO))

        for pool, probability in (
            (self._legacy_servers, self._legacy_probability),
            (self._third_party_servers, self._third_party_probability),
        ):
            if pool and rng.random() < probability:
                t = t_s + rng.uniform(0.0, 2.0)
                flows.append(self._asset_flow(t, src_ip, goodput_bps, pool, rng))
        return decision

    def _asset_flow(
        self,
        t: float,
        src_ip: int,
        goodput_bps: float,
        pool: List[ContentServer],
        rng: random.Random,
    ) -> Flow:
        server = pool[rng.randrange(len(pool))]
        # Small legacy videos / assets: log-normal around ~0.8 MB.
        num_bytes = int(min(6.0e6, max(3.0e4, rng.lognormvariate(math.log(8.0e5), 1.0))))
        goodput = goodput_bps * rng.uniform(0.55, 1.1)
        duration = num_bytes * 8.0 / goodput + rng.uniform(0.1, 0.4)
        video = self.catalog.by_rank(rng.randrange(len(self.catalog)))
        video_id = video.video_id
        return (t, t + duration, src_ip, server.ip, num_bytes, video_id, _ASSET_LABEL, KIND_ASSET)


class _Floors(dict):
    """Floor RTT (ms) from one latency class to each data center, by ID.

    Filled on first use: the floor depends only on the class and the
    server's data center, never on which server or client it is.
    """

    def __init__(self, system: CdnSystem, site: Site):
        super().__init__()
        self._system = system
        self._site = site

    def of(self, server: ContentServer) -> float:
        """Floor RTT to ``server``'s data center."""
        floor = self.get(server.dc_id)
        if floor is None:
            system = self._system
            floor = system.latency.min_rtt_ms(self._site, system.server_site(server))
            self[server.dc_id] = floor
        return floor


class _ServingTables:
    """Serving's stateless half for one :class:`CdnSystem`, built on demand.

    Per latency class (clients that share a routing group, location,
    access technology and egress latency — Gürsun's routing-equivalent
    partition), the floor RTT to each data center; per resolution, its
    label.  Nothing here consumes randomness.  Nothing is kept per video:
    a video's shard is one crc32, and a table over every requested video
    would grow with the week (tens of MB at 10 % scale).
    """

    def __init__(self, system: CdnSystem):
        self._system = system
        self._floors: Dict[tuple, _Floors] = {}
        #: One label string per resolution, shared by every flow record.
        self.labels: Dict[Resolution, str] = {r: r.label for r in Resolution}

    def client(self, client_ip: int, site: Site, resolver: LocalResolver) -> ServingClient:
        system = self._system
        latency_class = (site.routing_group, site.point, site.access, site.extra_ms)
        floors = self._floors.get(latency_class)
        if floors is None:
            floors = self._floors[latency_class] = _Floors(system, site)
        ranking = system.policy.ranking_for(resolver.resolver_id)
        return ServingClient(client_ip, floors, _GOODPUT_BPS[site.access], resolver, ranking)
