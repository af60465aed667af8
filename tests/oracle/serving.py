"""Spec of request serving: every request redoes all of its work.

The runtime (:meth:`repro.cdn.cluster.CdnSystem.serve` under
:class:`repro.sim.engine.RequestProcessor`) looks up the stateless half
its requests share — the client's floor RTT to every data center, its
resolver's ranking, the resolution labels — in tables built once per
world, asks the policy for the shard's server directly when no resolver
cache can answer, samples with ``bisect`` and hands flows to the
monitor as plain tuples, which it keeps as columns.  This module restates
the path the way the paper's Section II sequence reads: format the sharded
hostname, query the local resolver, let the authoritative policy parse
the shard back out, route the redirect chain, build one
:class:`~repro.cdn.cluster.FlowEvent` per flow (recomputing the path floor
for each), convert each into a :class:`~repro.trace.records.FlowRecord`
at the monitor, and log the ground truth.  The request stream is
generated with ``np.searchsorted`` over the cumulative weights.

Every function drives the *same* world objects the runtime drives — the
policy's, engine's, placement's and monitor's own RNGs, counters and
load tables — so a spec run and a runtime run over two equal worlds must
agree on every record, tally, counter and final RNG state.
"""

from __future__ import annotations

import math
import random
import zlib
from typing import Dict, Iterator, List, Optional, Sequence, Set

import numpy as np

from repro.cdn.catalog import Resolution, Video, hostname_for_video, shard_of
from repro.cdn.cluster import (
    _CONTROL_BYTES,
    _GOODPUT_BPS,
    _MIN_VIDEO_BYTES,
    KIND_ASSET,
    KIND_CONTROL,
    KIND_VIDEO,
    CdnSystem,
    FlowEvent,
    RequestOutcome,
)
from repro.cdn.datacenter import ContentServer, DataCenter
from repro.cdn.redirection import (
    CAUSE_MISS,
    CAUSE_OVERLOAD_INTER,
    CAUSE_OVERLOAD_INTRA,
    CAUSE_REBALANCE,
    MAX_HOPS,
    RedirectionEngine,
    ServeDecision,
)
from repro.cdn.selection import SelectionPolicy, parse_shard
from repro.cdn.store import ContentPlacement
from repro.geo.coords import haversine_km
from repro.net.dns import Answer, LocalResolver
from repro.net.latency import Site
from repro.sim.engine import _MAX_PERF_SAMPLES, DEFAULT_MISS_PROBABILITY
from repro.sim.scenarios import ScenarioWorld
from repro.sim.seeding import derive_seed
from repro.sim.week import (
    TRUTH_DNS,
    TRUTH_PREFERRED,
    TRUTH_REDIRECTION,
    GroundTruthLog,
    SimulationResult,
)
from repro.trace.monitor import EdgeMonitor
from repro.trace.records import Dataset, FlowRecord

from tests.oracle import table_of
from repro.workload.requests import Request, RequestGenerator, _poisson, sample_resolution

# ------------------------------------------------------------------ DNS chain


def map_name(policy: SelectionPolicy, hostname: str, resolver_id: str, now_s: float) -> Answer:
    """Spec of :meth:`SelectionPolicy.map_name`: parse the shard back out."""
    shard = parse_shard(hostname)
    dc_id = policy.select_dc(resolver_id, now_s)
    policy.assignments[dc_id] = policy.assignments.get(dc_id, 0) + 1
    dc = policy._directory.get(dc_id)
    server = dc.server_by_index(shard % dc.size)
    return Answer(ip=server.ip, ttl_s=policy._ttl_s)


def query(resolver: LocalResolver, hostname: str, now_s: float) -> Answer:
    """Spec of :meth:`LocalResolver.query` through the authoritative server."""
    if resolver.cache_enabled:
        cached = resolver._cache.get(hostname)
        if cached is not None:
            answer, expiry = cached
            if now_s < expiry:
                resolver.hits += 1
                return answer
            del resolver._cache[hostname]
    resolver.misses += 1
    authoritative = resolver.authoritative
    authoritative.queries += 1
    answer = map_name(authoritative.mapper, hostname, resolver.resolver_id, now_s)
    if resolver.cache_enabled and answer.ttl_s > 0:
        resolver._cache[hostname] = (answer, now_s + answer.ttl_s)
    return answer


# ------------------------------------------------------------------ placement


def holders_of_tail(placement: ContentPlacement, video: Video) -> Set[str]:
    """Spec of the lazily hashed tail residency (one crc32 per data center)."""
    holders = placement._tail_holders.get(video.video_id)
    if holders is None:
        holders = set()
        dc_ids = placement._dc_ids
        n = len(dc_ids)
        base = zlib.crc32(video.video_id.encode())
        for k in range(placement._origin_count):
            holders.add(dc_ids[(base + k * 7919) % n])
        threshold = int(placement._regional_presence_prob * 1_000_000)
        for dc_id in dc_ids:
            if dc_id in holders:
                continue
            draw = zlib.crc32(f"{video.video_id}|{dc_id}".encode()) % 1_000_000
            if draw < threshold:
                holders.add(dc_id)
        placement._tail_holders[video.video_id] = holders
    return holders


def _is_head(placement: ContentPlacement, video: Video) -> bool:
    return video.rank < placement._head_ranks or video.video_id in placement._forced_global


def is_resident(placement: ContentPlacement, dc_id: str, video: Video) -> bool:
    """Spec of :meth:`ContentPlacement.is_resident`."""
    if _is_head(placement, video):
        return True
    return dc_id in holders_of_tail(placement, video)


def holders(placement: ContentPlacement, video: Video) -> List[str]:
    """Spec of :meth:`ContentPlacement.holders`."""
    if _is_head(placement, video):
        return list(placement._dc_ids)
    tail = holders_of_tail(placement, video)
    return [dc_id for dc_id in placement._dc_ids if dc_id in tail]


def pull_through(placement: ContentPlacement, dc_id: str, video: Video) -> None:
    """Spec of :meth:`ContentPlacement.pull_through` (with the LRU)."""
    if dc_id not in placement._dc_ids:
        raise KeyError(f"unknown data center: {dc_id!r}")
    if _is_head(placement, video):
        return
    tail = holders_of_tail(placement, video)
    if dc_id not in tail:
        tail.add(dc_id)
        placement.pull_throughs += 1
        if placement._cache_capacity is not None:
            lru = placement._pulled[dc_id]
            lru[video.video_id] = None
            while len(lru) > placement._cache_capacity:
                victim_id = next(iter(lru))
                del lru[victim_id]
                victim_holders = placement._tail_holders.get(victim_id)
                if victim_holders is not None:
                    victim_holders.discard(dc_id)
                placement.evictions += 1


# ---------------------------------------------------------------- redirection


def _serves_this_hour(engine: RedirectionEngine, server_ip: int, now_s: float) -> float:
    hour = int(now_s // 3600.0)
    entry = engine._load.get(server_ip)
    if entry is None or entry[0] != hour:
        return 0.0
    return entry[1]


def _record_serve(engine: RedirectionEngine, server_ip: int, now_s: float) -> None:
    hour = int(now_s // 3600.0)
    entry = engine._load.get(server_ip)
    if entry is None or entry[0] != hour:
        engine._load[server_ip] = [hour, 1.0]
    else:
        entry[1] += 1.0


def _sibling_with_headroom(
    engine: RedirectionEngine, dc: DataCenter, exclude_ip: int, now_s: float
) -> Optional[ContentServer]:
    cap = dc.server_capacity_per_hour
    candidates = [s for s in dc.servers if s.ip != exclude_ip]
    if not candidates:
        return None
    for _ in range(min(8, len(candidates))):
        pick = candidates[engine._rng.randrange(len(candidates))]
        if cap is None or _serves_this_hour(engine, pick.ip, now_s) < cap:
            return pick
    return None


def _server_in_dc(engine: RedirectionEngine, dc: DataCenter, now_s: float) -> ContentServer:
    cap = dc.server_capacity_per_hour
    for _ in range(min(8, dc.size)):
        pick = dc.servers[engine._rng.randrange(dc.size)]
        if cap is None or _serves_this_hour(engine, pick.ip, now_s) < cap:
            return pick
    return dc.servers[engine._rng.randrange(dc.size)]


def _nearest_holder(
    engine: RedirectionEngine, from_dc: DataCenter, video: Video, allowed: frozenset
) -> Optional[DataCenter]:
    best: Optional[DataCenter] = None
    best_km = float("inf")
    for dc_id in holders(engine._placement, video):
        if dc_id == from_dc.dc_id or dc_id not in allowed:
            continue
        dc = engine._directory.get(dc_id)
        d = haversine_km(from_dc.city.point, dc.city.point)
        if d < best_km:
            best, best_km = dc, d
    return best


def _next_ranked_dc(
    engine: RedirectionEngine, ranking: Sequence[str], current_dc_id: str, video: Video
) -> Optional[DataCenter]:
    placement = engine._placement
    seen_current = False
    for dc_id in ranking:
        if dc_id == current_dc_id:
            seen_current = True
            continue
        if not seen_current:
            continue
        if is_resident(placement, dc_id, video):
            return engine._directory.get(dc_id)
    for dc_id in ranking:
        if dc_id != current_dc_id and is_resident(placement, dc_id, video):
            return engine._directory.get(dc_id)
    return None


def route(
    engine: RedirectionEngine,
    first_server: ContentServer,
    video: Video,
    ranking: Sequence[str],
    now_s: float,
    shard: Optional[int] = None,
) -> ServeDecision:
    """Spec of :meth:`RedirectionEngine.route`: eligible set built up front."""
    placement = engine._placement
    rng = engine._rng
    decision = ServeDecision(hops=[first_server])
    server = first_server
    allowed = frozenset(ranking) | {first_server.dc_id}
    for _ in range(MAX_HOPS - 1):
        dc = engine._directory.get(server.dc_id)
        if not is_resident(placement, dc.dc_id, video):
            holder = None
            if rng.random() < engine._origin_fetch_probability:
                n = len(placement._dc_ids)
                base = zlib.crc32(video.video_id.encode())
                origin_ids = sorted(
                    {placement._dc_ids[(base + k * 7919) % n]
                     for k in range(placement._origin_count)}
                )
                origins = [o for o in origin_ids if o != dc.dc_id and o in allowed]
                if origins:
                    holder = engine._directory.get(origins[rng.randrange(len(origins))])
            if holder is None:
                holder = _nearest_holder(engine, dc, video, allowed)
            if holder is None:
                break
            pull_through(placement, dc.dc_id, video)
            server = _server_in_dc(engine, holder, now_s)
            decision.hops.append(server)
            decision.causes.append(CAUSE_MISS)
            engine.miss_redirects += 1
            continue
        cap = dc.server_capacity_per_hour
        if cap is not None and _serves_this_hour(engine, server.ip, now_s) >= cap:
            shed_local = rng.random() < engine._intra_shed_fraction
            sibling = _sibling_with_headroom(engine, dc, server.ip, now_s) if shed_local else None
            if sibling is not None:
                server = sibling
                decision.hops.append(server)
                decision.causes.append(CAUSE_OVERLOAD_INTRA)
            else:
                target = _next_ranked_dc(engine, ranking, dc.dc_id, video)
                if target is None:
                    sibling = _sibling_with_headroom(engine, dc, server.ip, now_s)
                    if sibling is None:
                        break
                    server = sibling
                    decision.hops.append(server)
                    decision.causes.append(CAUSE_OVERLOAD_INTRA)
                    engine.overload_redirects += 1
                    continue
                if shard is not None:
                    server = target.server_by_index(shard % target.size)
                else:
                    server = _server_in_dc(engine, target, now_s)
                decision.hops.append(server)
                decision.causes.append(CAUSE_OVERLOAD_INTER)
            engine.overload_redirects += 1
            continue
        if (
            len(decision.hops) == 1
            and engine._rebalance_probability
            and rng.random() < engine._rebalance_probability
        ):
            candidates = [s for s in dc.servers if s.ip != server.ip]
            if candidates:
                server = candidates[rng.randrange(len(candidates))]
                decision.hops.append(server)
                decision.causes.append(CAUSE_REBALANCE)
                engine.rebalances += 1
                continue
        break
    _record_serve(engine, decision.serving_server.ip, now_s)
    return decision


# ---------------------------------------------------------------------- flows


def server_site(system: CdnSystem, server: ContentServer) -> Site:
    """Spec of :meth:`CdnSystem.server_site` (a fresh :class:`Site` per call)."""
    dc = system.directory.dc_of_server(server.ip)
    if dc is None:
        dc = system._legacy_dc_by_id.get(server.dc_id) or system._third_party_dc_by_id.get(
            server.dc_id
        )
    if dc is None:
        raise KeyError(f"server {server.ip_str} belongs to no known data center")
    return dc.server_site(server)


def _control_flow(system, t, client_ip, client_site, server, video, resolution, rng):
    rtt_s = system.latency.min_rtt_ms(client_site, server_site(system, server)) / 1000.0
    duration = 2.0 * rtt_s + rng.uniform(0.01, 0.08)
    return FlowEvent(
        t_start=t,
        t_end=t + duration,
        client_ip=client_ip,
        server_ip=server.ip,
        num_bytes=rng.randint(*_CONTROL_BYTES),
        video_id=video.video_id,
        resolution=resolution.label,
        kind=KIND_CONTROL,
    )


def _video_flow(system, t, client_ip, client_site, server, video, resolution, rng,
                watch_fraction=None):
    if watch_fraction is None:
        watch_fraction = 1.0 if rng.random() < 0.40 else rng.uniform(0.05, 1.0)
    num_bytes = max(_MIN_VIDEO_BYTES, int(video.size_bytes(resolution) * watch_fraction))
    goodput = _GOODPUT_BPS[client_site.access] * rng.uniform(0.55, 1.1)
    duration = num_bytes * 8.0 / goodput + rng.uniform(0.1, 0.5)
    return FlowEvent(
        t_start=t,
        t_end=t + duration,
        client_ip=client_ip,
        server_ip=server.ip,
        num_bytes=num_bytes,
        video_id=video.video_id,
        resolution=resolution.label,
        kind=KIND_VIDEO,
    )


def _fragment(flow: FlowEvent, rng: random.Random) -> List[FlowEvent]:
    split = rng.uniform(0.25, 0.75)
    duration = flow.t_end - flow.t_start
    first_end = flow.t_start + duration * split
    gap = rng.uniform(0.05, 0.4)
    first = FlowEvent(
        t_start=flow.t_start,
        t_end=first_end,
        client_ip=flow.client_ip,
        server_ip=flow.server_ip,
        num_bytes=int(flow.num_bytes * split),
        video_id=flow.video_id,
        resolution=flow.resolution,
        kind=flow.kind,
    )
    second = FlowEvent(
        t_start=first_end + gap,
        t_end=first_end + gap + duration * (1.0 - split),
        client_ip=flow.client_ip,
        server_ip=flow.server_ip,
        num_bytes=flow.num_bytes - first.num_bytes,
        video_id=flow.video_id,
        resolution=flow.resolution,
        kind=flow.kind,
    )
    return [first, second]


def _asset_flow(system, t, client_ip, client_site, pool, rng):
    server = pool[rng.randrange(len(pool))]
    num_bytes = int(min(6.0e6, max(3.0e4, rng.lognormvariate(math.log(8.0e5), 1.0))))
    goodput = _GOODPUT_BPS[client_site.access] * rng.uniform(0.55, 1.1)
    duration = num_bytes * 8.0 / goodput + rng.uniform(0.1, 0.4)
    video = system.catalog.by_rank(rng.randrange(len(system.catalog)))
    return FlowEvent(
        t_start=t,
        t_end=t + duration,
        client_ip=client_ip,
        server_ip=server.ip,
        num_bytes=num_bytes,
        video_id=video.video_id,
        resolution=Resolution.R240.label,
        kind=KIND_ASSET,
    )


def handle_request(
    system: CdnSystem,
    client_ip: int,
    client_site: Site,
    resolver: LocalResolver,
    video: Video,
    resolution: Resolution,
    t_s: float,
    rng: random.Random,
    watch_fraction: Optional[float] = None,
) -> RequestOutcome:
    """Spec of :meth:`CdnSystem.handle_request`: one request, end to end."""
    hostname = hostname_for_video(video.video_id, system.num_shards)
    answer = query(resolver, hostname, t_s)
    first_server = system.directory.server_at(answer.ip)
    if first_server is None:
        raise LookupError(f"DNS answered an unknown server address: {answer.ip}")
    ranking = system.policy.ranking_for(resolver.resolver_id)
    shard = shard_of(video.video_id, system.num_shards)
    decision = route(system.redirection, first_server, video, ranking, t_s, shard=shard)

    events: List[FlowEvent] = []
    cursor = t_s
    for hop in decision.hops[:-1]:
        flow = _control_flow(system, cursor, client_ip, client_site, hop, video, resolution, rng)
        events.append(flow)
        cursor = flow.t_end + rng.uniform(0.05, 0.35)
    video_flow = _video_flow(
        system, cursor, client_ip, client_site, decision.serving_server, video, resolution,
        rng, watch_fraction,
    )
    if (
        system._fragment_probability
        and video_flow.num_bytes >= 4 * _MIN_VIDEO_BYTES
        and rng.random() < system._fragment_probability
    ):
        events.extend(_fragment(video_flow, rng))
    else:
        events.append(video_flow)
    if system._legacy_servers and rng.random() < system._legacy_probability:
        events.append(_asset_flow(
            system, t_s + rng.uniform(0.0, 2.0), client_ip, client_site,
            system._legacy_servers, rng,
        ))
    if system._third_party_servers and rng.random() < system._third_party_probability:
        events.append(_asset_flow(
            system, t_s + rng.uniform(0.0, 2.0), client_ip, client_site,
            system._third_party_servers, rng,
        ))
    return RequestOutcome(
        events=events,
        decision=decision,
        dns_dc_id=first_server.dc_id,
        served_dc_id=decision.serving_server.dc_id,
    )


# -------------------------------------------------------------- monitor, truth


def observe(monitor: EdgeMonitor, event: FlowEvent, records: List[FlowRecord]) -> None:
    """Spec of the monitor: one miss draw, then one record per kept flow
    onto ``records``, the spec's own flow log."""
    monitor.observed += 1
    if monitor._miss_probability and monitor._rng.random() < monitor._miss_probability:
        monitor.missed += 1
        return
    record = FlowRecord(
        src_ip=event.client_ip,
        dst_ip=event.server_ip,
        num_bytes=event.num_bytes,
        t_start=event.t_start,
        t_end=event.t_end,
        video_id=event.video_id,
        resolution=event.resolution,
    )
    monitor._recorded += 1
    records.append(record)


#: The ground truth's per-request columns, in :meth:`GroundTruthLog.freeze` order.
TRUTH_COLUMNS = (
    "client_ips", "video_ids", "t_s", "anchor_dcs", "dns_dcs", "served_dcs", "labels",
)


def append_truth(truth: Dict[str, list], client_ip, video_id, t_s, anchor_dc, dns_dc,
                 chain_dcs) -> None:
    """Spec of one ground-truth row (label derived, no randomness)."""
    if dns_dc != anchor_dc:
        label = TRUTH_DNS
    elif any(dc_id != anchor_dc for dc_id in chain_dcs):
        label = TRUTH_REDIRECTION
    else:
        label = TRUTH_PREFERRED
    truth["client_ips"].append(client_ip)
    truth["video_ids"].append(video_id)
    truth["t_s"].append(t_s)
    truth["anchor_dcs"].append(anchor_dc)
    truth["dns_dcs"].append(dns_dc)
    truth["served_dcs"].append(chain_dcs[-1] if chain_dcs else dns_dc)
    truth["labels"].append(label)


def preferred_dc(world: ScenarioWorld, served: Dict[str, int]) -> Optional[str]:
    """Spec of the truth's preferred data center: the first subnet's
    resolver's top-ranked one, else the most-served one."""
    resolver_id = f"{world.spec.name}/{world.spec.subnets[0].name}"
    try:
        return world.system.policy.ranking_for(resolver_id)[0]
    except KeyError:
        return max(served, key=served.get) if served else None


class SpecProcessor:
    """Spec of :class:`repro.sim.engine.RequestProcessor`."""

    def __init__(
        self,
        world: ScenarioWorld,
        miss_probability: float = DEFAULT_MISS_PROBABILITY,
    ):
        self.world = world
        self.monitor = EdgeMonitor(
            world.vantage,
            miss_probability=miss_probability,
            seed=derive_seed(world.seed, world.spec.name, "monitor"),
        )
        self.records: List[FlowRecord] = []
        self.serve_rng = random.Random(derive_seed(world.seed, world.spec.name, "serve"))
        self.result = SimulationResult(world=world.measured(), dataset=None, requests=0)
        self.truth: Dict[str, list] = {name: [] for name in TRUTH_COLUMNS}
        self.anchor_resolver: Optional[str] = None
        subnets = getattr(world.spec, "subnets", ())
        for subnet_spec in subnets:
            if not getattr(subnet_spec, "divergent_resolver", False):
                self.anchor_resolver = f"{world.spec.name}/{subnet_spec.name}"
                break
        if self.anchor_resolver is None and subnets:
            self.anchor_resolver = f"{world.spec.name}/{subnets[0].name}"

    def process(self, request: Request) -> RequestOutcome:
        world = self.world
        result = self.result
        client_ip = request.client.ip
        site = world.vantage.client_site(client_ip)
        resolver = world.vantage.resolver_for(client_ip)
        outcome = handle_request(
            world.system, client_ip, site, resolver, request.video, request.resolution,
            request.t_s, self.serve_rng,
        )
        for event in outcome.events:
            observe(self.monitor, event, self.records)
        result.requests += 1
        result.dns_dc_counts[outcome.dns_dc_id] += 1
        result.served_dc_counts[outcome.served_dc_id] += 1
        anchor_dc = None
        if self.anchor_resolver is not None:
            try:
                anchor_dc = world.system.policy.preferred_now(self.anchor_resolver, request.t_s)
            except KeyError:
                anchor_dc = None
        if anchor_dc is None:
            anchor_dc = outcome.dns_dc_id
        append_truth(
            self.truth, client_ip, request.video.video_id, request.t_s, anchor_dc,
            outcome.dns_dc_id, [hop.dc_id for hop in outcome.decision.hops],
        )
        if outcome.decision.causes:
            for cause in outcome.decision.causes:
                result.cause_counts[cause] += 1
        else:
            result.cause_counts["direct"] += 1
        if len(result.startup_delay_samples) < _MAX_PERF_SAMPLES:
            serving = outcome.decision.serving_server
            rtt_ms = world.latency.min_rtt_ms(site, server_site(world.system, serving))
            video_flow = outcome.events[len(outcome.decision.hops) - 1]
            startup = (video_flow.t_start - request.t_s) + 2.0 * rtt_ms / 1000.0
            result.startup_delay_samples.append(startup)
            result.serving_rtt_samples.append(rtt_ms)
        return outcome

    def finish(self) -> SimulationResult:
        """Spec of the monitor's dataset: the records in stable start/end
        order; and of the frozen ground truth."""
        self.records.sort(key=lambda r: (r.t_start, r.t_end))
        result = self.result
        result.dataset = Dataset(
            name=self.world.spec.name,
            vantage=result.world.vantage,
            table=table_of(self.records),
            duration_s=self.world.duration_s,
        )
        result.truth = GroundTruthLog.freeze(
            **self.truth,
            preferred_dc=preferred_dc(self.world, result.served_dc_counts),
            servers=result.world.servers,
        )
        return result


# ------------------------------------------------------------------ workload


def _sample_index(cumulative: np.ndarray, target: float, size: int) -> int:
    return min(int(np.searchsorted(cumulative, target, side="right")), size - 1)


def _sample_client(population, u: float):
    clients = population._clients
    return clients[_sample_index(population._cumulative, u * population._total, len(clients))]


def _sample_video(catalog, u: float, t_s: float) -> Video:
    featured = catalog._featured_by_day.get(int(t_s // 86400.0))
    if featured is not None:
        if u < catalog._featured_share:
            return featured
        u = (u - catalog._featured_share) / (1.0 - catalog._featured_share)
    index = _sample_index(catalog._cumulative, u * catalog._total_weight, catalog._size)
    return catalog._videos[index]


def _one_playback(generator: RequestGenerator, t_s, rng, duration_s) -> Iterator[Request]:
    client = _sample_client(generator._population, rng.random())
    video = _sample_video(generator._catalog, rng.random(), t_s)
    resolution = sample_resolution(rng)
    yield Request(t_s=t_s, client=client, video=video, resolution=resolution)
    cursor = t_s
    current = resolution
    interactions = generator._interactions
    for gap in interactions.draw_gaps(rng):
        cursor += gap
        if cursor >= duration_s:
            break
        current = interactions.next_resolution(current, rng)
        yield Request(t_s=cursor, client=client, video=video, resolution=current,
                      is_interaction=True)


def generate(generator: RequestGenerator, duration_s: float) -> List[Request]:
    """Spec of :meth:`RequestGenerator.generate` (``np.searchsorted`` sampling)."""
    rng = random.Random(generator._seed)
    base_per_hour = generator._requests_per_day / 24.0
    requests: List[Request] = []
    num_hours = int(duration_s // 3600.0)
    remainder_s = duration_s - num_hours * 3600.0
    for hour in range(num_hours + (1 if remainder_s > 0 else 0)):
        hour_start = hour * 3600.0
        span = min(3600.0, duration_s - hour_start)
        rate = base_per_hour * generator._profile.multiplier(hour_start) * (span / 3600.0)
        for _ in range(_poisson(rate, rng)):
            t = hour_start + rng.uniform(0.0, span)
            requests.extend(_one_playback(generator, t, rng, duration_s))
    requests.sort(key=lambda r: r.t_s)
    return requests


def run_requests(
    world: ScenarioWorld,
    requests: Optional[Sequence[Request]] = None,
    miss_probability: float = DEFAULT_MISS_PROBABILITY,
) -> SimulationResult:
    """Spec of :func:`repro.sim.engine.run_requests`."""
    if requests is None:
        requests = generate(world.generator, world.duration_s)
    processor = SpecProcessor(world, miss_probability=miss_probability)
    for request in requests:
        processor.process(request)
    return processor.finish()

