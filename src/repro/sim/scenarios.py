"""World building: a scenario spec made runnable.

:func:`build_world` turns a :class:`~repro.sim.specs.ScenarioSpec` plus a
``scale`` knob into a runnable :class:`ScenarioWorld`.  ``scale = 1.0`` reproduces the paper's traffic
volumes (hundreds of thousands of flows per dataset); benchmarks default to
a small scale that preserves every shape at a laptop-friendly cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cdn.catalog import DEFAULT_NUM_SHARDS, VideoCatalog
from repro.cdn.cluster import CdnSystem
from repro.cdn.datacenter import DataCenter, DataCenterDirectory, build_datacenter
from repro.cdn.redirection import RedirectionEngine
from repro.cdn.selection import (
    PolicyContext,
    SelectionPolicy,
    UnknownPolicyError,
    make_policy,
    registered_policy_kinds,
)
from repro.cdn.store import ContentPlacement
from repro.geo.cities import default_atlas
from repro.net.asn import (
    AsRegistry,
    CW_ASN,
    GBLX_ASN,
    GOOGLE_ASN,
    YOUTUBE_EU_ASN,
)
from repro.net.dns import AuthoritativeServer, LocalResolver
from repro.net.ip import Ipv4Allocator, parse_network
from repro.net.latency import LatencyModel, Site
from repro.net.topology import Subnet, VantagePoint
from repro.sim.seeding import derive_seed
from repro.sim.specs import PAPER_SCENARIOS, ScenarioSpec
from repro.sim.week import MeasuredWorld, ServerTable
from repro.trace.records import WEEK_S
from repro.workload.clients import ClientPopulation, build_population
from repro.workload.diurnal import DiurnalProfile
from repro.workload.interactions import InteractionModel
from repro.workload.requests import RequestGenerator

#: Legacy YouTube-EU (AS 43515) asset pools: small leftover infrastructure.
LEGACY_DC_PLAN: Tuple[Tuple[str, int], ...] = (
    ("Amsterdam", 80),
    ("London", 70),
    ("Mountain View", 60),
)

#: Third-party pools (the "Others" column of Table II).
THIRD_PARTY_DC_PLAN: Tuple[Tuple[str, str, int], ...] = (
    ("London", "cw", 40),
    ("New York", "gblx", 40),
)


def _slug(city_name: str) -> str:
    return city_name.lower().replace(" ", "-").replace(".", "")


@dataclass
class ScenarioWorld:
    """A fully built, runnable scenario.

    Attributes:
        spec: The source specification.
        scale: Applied volume scale.
        seed: Master seed.
        system: The CDN.
        vantage: The monitored vantage point.
        population: Client population.
        generator: Request generator for the simulated window.
        registry: The AS registry (the simulated whois).
        latency: The shared delay model.
        google_dc_ids: Ranked (DNS-eligible) data-center IDs.
        internal_dc_id: The in-ISP data center's ID (EU2 only).
        duration_s: Simulation window.
        policy_kind: Selection-policy kind this world was built with.
    """

    spec: ScenarioSpec
    scale: float
    seed: int
    system: CdnSystem
    vantage: VantagePoint
    population: ClientPopulation
    generator: RequestGenerator
    registry: AsRegistry
    latency: LatencyModel
    google_dc_ids: List[str]
    internal_dc_id: Optional[str]
    duration_s: float
    policy_kind: str

    @property
    def probe_site(self) -> Site:
        """The monitoring PC's network position."""
        return self.vantage.probe_site

    def measured(self) -> MeasuredWorld:
        """What a measurement can observe of this world.

        The vantage point without its resolvers, the AS registry, the
        latency model, the window, and where each server address sits:
        the data center's position and routing group, not the CDN.
        """
        directory = self.system.directory
        return MeasuredWorld(
            vantage=self.vantage.without_resolvers(),
            registry=self.registry,
            latency=self.latency,
            duration_s=self.duration_s,
            servers=ServerTable.build(
                (dc.dc_id, [server.ip for server in dc.servers]) for dc in directory
            ),
            dc_points=tuple(dc.city.point for dc in directory),
        )


def build_world(
    spec: ScenarioSpec,
    scale: float = 1.0,
    seed: int = 7,
    duration_s: float = WEEK_S,
    policy_kind: str = "preferred",
    traffic_seed: Optional[int] = None,
) -> ScenarioWorld:
    """Build a runnable world for a scenario.

    Args:
        spec: Scenario specification.
        scale: Volume scale; multiplies clients and request rate, and scales
            the capacity limits accordingly so load ratios are preserved.
        seed: Master seed.
        duration_s: Simulation window (default one week).
        traffic_seed: Optional separate seed for the *per-request*
            randomness (workload arrivals, redirection coin flips, the
            policy's spill sampling).  ``None`` (the default) keeps
            everything on ``seed`` — byte-identical to the historical
            behaviour.  The longitudinal monitor passes a per-epoch
            ``traffic_seed`` while holding ``seed`` fixed, so
            consecutive epochs are fresh traffic samples of the *same*
            physical world: latency paths, the catalog, the client
            address plan and the RTT ranking never re-roll between
            epochs (re-rolled paths would masquerade as CDN changes).
        policy_kind: A registered selection-policy kind (see
            :func:`repro.cdn.selection.registered_policy_kinds`):
            ``"preferred"`` for the paper's inferred (RTT-driven) policy,
            ``"proportional"`` for the old-infrastructure ablation
            baseline, ``"geographic"`` for an idealised distance-driven
            policy (what selection would look like if proximity *were*
            the criterion — it is not, per Figure 8), plus the
            literature policies of :mod:`repro.cdn.policies`
            (``"gwtw"``, ``"isp-te"``, ``"partition"``).

    Returns:
        The assembled :class:`ScenarioWorld`.

    Raises:
        ValueError: For a non-positive scale or an unregistered policy
            kind (the message names every registered policy).
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    if policy_kind not in registered_policy_kinds():
        raise UnknownPolicyError(policy_kind)
    request_seed = seed if traffic_seed is None else traffic_seed
    atlas = default_atlas()
    vantage_city = atlas.get(spec.vantage_city)

    # ---------------------------------------------------------- address plan
    registry = AsRegistry()
    registry.register_as(GOOGLE_ASN, "Google Inc.")
    registry.register_as(YOUTUBE_EU_ASN, "YouTube-EU")
    registry.register_as(CW_ASN, "Cable&Wireless")
    registry.register_as(GBLX_ASN, "Global Crossing")
    registry.register_as(spec.vantage_asn, f"{spec.name} host network")

    google_alloc = Ipv4Allocator(
        (parse_network("173.194.0.0/15"), parse_network("74.125.0.0/16"))
    )
    legacy_alloc = Ipv4Allocator((parse_network("208.65.152.0/21"),))
    third_alloc = Ipv4Allocator((parse_network("195.50.0.0/20"),))
    isp_alloc = Ipv4Allocator((parse_network("81.200.0.0/18"),))

    # ----------------------------------------------------------- data centers
    group = f"vp:{spec.name}"
    scaled_rpd = spec.requests_per_day * scale
    mean_hourly = scaled_rpd / 24.0

    google_dcs: List[DataCenter] = []
    for city_name, size in spec.effective_dc_plan():
        dc = build_datacenter(
            dc_id=f"dc-{_slug(city_name)}",
            city=atlas.get(city_name),
            num_servers=size,
            allocator=google_alloc,
            asn=GOOGLE_ASN,
        )
        google_dcs.append(dc)

    internal_dc: Optional[DataCenter] = None
    if spec.internal_dc:
        internal_dc = build_datacenter(
            dc_id="dc-eu2-internal",
            city=vantage_city,
            num_servers=32,
            allocator=isp_alloc,
            asn=spec.vantage_asn,
        )

    # ------------------------------------------------------------- latencies
    # Every world shares one physical internet: the same latency seed AND
    # the same detour pins.  Pins are keyed by vantage group, so the union
    # over all scenarios is conflict-free — and it must be the union, or a
    # measurement made "through" one world would see different paths than
    # another world's policy ranked by.
    detours: Dict[Tuple[str, str], float] = {}
    for any_spec in PAPER_SCENARIOS.values():
        any_group = f"vp:{any_spec.name}"
        for dc_id, detour_ms in any_spec.detour_pins:
            detours[(any_group, dc_id)] = detour_ms
        if any_spec.internal_dc:
            # Traffic to the in-ISP data center never leaves the ISP.
            detours[(any_group, "dc-eu2-internal")] = 0.0
    for dc_id, detour_ms in spec.detour_pins:
        detours[(group, dc_id)] = detour_ms
    if internal_dc is not None:
        detours[(group, internal_dc.dc_id)] = 0.0
    latency = LatencyModel(seed=derive_seed(seed, "latency"), detour_overrides=detours)

    legacy_dcs: List[DataCenter] = [
        build_datacenter(
            dc_id=f"legacy-{_slug(city_name)}",
            city=atlas.get(city_name),
            num_servers=size,
            allocator=legacy_alloc,
            asn=YOUTUBE_EU_ASN,
        )
        for city_name, size in LEGACY_DC_PLAN
    ]
    third_party_dcs: List[DataCenter] = [
        build_datacenter(
            dc_id=f"3p-{label}-{_slug(city_name)}",
            city=atlas.get(city_name),
            num_servers=size,
            allocator=third_alloc,
            asn=CW_ASN if label == "cw" else GBLX_ASN,
        )
        for city_name, label, size in THIRD_PARTY_DC_PLAN
    ]

    ranked_dcs: List[DataCenter] = list(google_dcs)
    if internal_dc is not None:
        ranked_dcs.append(internal_dc)
    all_dcs = ranked_dcs + legacy_dcs + third_party_dcs
    directory = DataCenterDirectory(all_dcs)

    for dc in all_dcs:
        for network in dc.networks:
            registry.announce(network, dc.asn)

    # --------------------------------------------------------------- vantage
    probe_site = Site(
        key=f"vp:{spec.name}",
        point=vantage_city.point,
        access=spec.access,
        extra_ms=spec.egress_ms,
        group=group,
    )

    # RTT ranking from the vantage point to every eligible data center —
    # this is the ground the preferred-data-center policy stands on.  The
    # "geographic" ablation ranks by distance instead, which Figure 8 shows
    # is NOT what the real system does.
    def dc_rtt(dc: DataCenter) -> float:
        return latency.min_rtt_ms(probe_site, dc.server_site(dc.servers[0]))

    def dc_distance(dc: DataCenter) -> float:
        return vantage_city.point.distance_km(dc.city.point)

    rank_key = dc_distance if policy_kind == "geographic" else dc_rtt
    ranked_ids = [dc.dc_id for dc in sorted(ranked_dcs, key=rank_key)]
    if spec.preferred_override is not None:
        if spec.preferred_override not in ranked_ids:
            raise ValueError(
                f"preferred_override {spec.preferred_override!r} is not a "
                f"rankable data center"
            )
        ranked_ids.remove(spec.preferred_override)
        ranked_ids.insert(0, spec.preferred_override)

    # ----------------------------------------------------------- DNS policy
    # One PolicyContext serves every registered kind: rankings reflect this
    # kind's ranking basis (distance for "geographic", RTT otherwise) and
    # the Section VII-B divergent-resolver overrides; caps carry the EU2
    # internal-DC budget (Section VII-A) and drain what-ifs; rtt_ms is the
    # link-cost signal the racing/traffic-engineering policies steer on.
    rankings: Dict[str, Sequence[str]] = {}
    for subnet_spec in spec.subnets:
        resolver_id = f"{spec.name}/{subnet_spec.name}"
        if subnet_spec.divergent_resolver:
            # YouTube's per-resolver assignment hands this resolver a
            # different preferred data center (Section VII-B).
            rankings[resolver_id] = [ranked_ids[1], ranked_ids[0]] + ranked_ids[2:]
        else:
            rankings[resolver_id] = list(ranked_ids)
    dns_caps: Dict[str, float] = {}
    if internal_dc is not None:
        dns_caps[internal_dc.dc_id] = max(2.0, spec.internal_dc_cap_of_mean * mean_hourly)
    if spec.drain_preferred:
        dns_caps[ranked_ids[0]] = 0.0
    policy: SelectionPolicy = make_policy(
        policy_kind,
        PolicyContext(
            directory=directory,
            rankings=rankings,
            eligible=tuple(dc.dc_id for dc in ranked_dcs),
            rtt_ms={dc.dc_id: dc_rtt(dc) for dc in ranked_dcs},
            dns_capacity_per_hour=dns_caps,
            spill_probability=spec.spill_probability,
            seed=derive_seed(request_seed, spec.name, "policy"),
            ttl_s=spec.dns_ttl_s,
            duration_s=duration_s,
        ),
    )

    authoritative = AuthoritativeServer(mapper=policy)
    subnet_block = parse_network(spec.client_block)
    subnet_networks = list(subnet_block.subnets(18))
    subnets: List[Subnet] = []
    for i, subnet_spec in enumerate(spec.subnets):
        resolver = LocalResolver(
            resolver_id=f"{spec.name}/{subnet_spec.name}",
            authoritative=authoritative,
            cache_enabled=spec.dns_cache_enabled,
        )
        subnets.append(
            Subnet(
                name=subnet_spec.name,
                network=subnet_networks[i],
                resolver=resolver,
                client_share=subnet_spec.client_share,
            )
        )
    vantage = VantagePoint(
        name=spec.name,
        city=vantage_city,
        access=spec.access,
        egress_ms=spec.egress_ms,
        subnets=subnets,
        asn=spec.vantage_asn,
    )

    # ------------------------------------------------ capacities and content
    preferred_id = (
        max(ranked_dcs, key=lambda d: d.size).dc_id
        if policy_kind == "proportional"
        else ranked_ids[0]
    )
    preferred_dc = directory.get(preferred_id)
    mean_per_server = mean_hourly / preferred_dc.size
    # The +4 floor keeps Poisson noise from tripping the limit at tiny
    # scales while leaving the hot shard server (which concentrates the
    # featured video's demand) well above it during feature-day peaks.
    capacity = spec.server_capacity_multiple * mean_per_server + 4.0
    for dc in ranked_dcs:
        dc.server_capacity_per_hour = capacity

    weeks = max(1.0, duration_s / WEEK_S)
    catalog_size = max(500, int(spec.catalog_per_request * scaled_rpd * 7 * weeks))
    catalog = VideoCatalog(
        size=catalog_size,
        zipf_alpha=spec.zipf_alpha,
        seed=derive_seed(seed, spec.name, "catalog"),
        num_featured_days=max(1, int(duration_s // 86400.0)),
        featured_share=spec.featured_share,
    )
    placement = ContentPlacement(
        catalog=catalog,
        dc_ids=[dc.dc_id for dc in ranked_dcs],
        replicated_mass=spec.replicated_mass,
        regional_presence_prob=spec.regional_presence_prob,
        cache_capacity=spec.cache_capacity,
    )
    redirection = RedirectionEngine(
        directory=directory,
        placement=placement,
        rebalance_probability=spec.rebalance_probability,
        origin_fetch_probability=spec.origin_fetch_probability,
        seed=derive_seed(request_seed, spec.name, "redirection"),
    )
    system = CdnSystem(
        catalog=catalog,
        directory=directory,
        placement=placement,
        policy=policy,
        redirection=redirection,
        latency=latency,
        num_shards=DEFAULT_NUM_SHARDS,
        legacy_dcs=legacy_dcs,
        third_party_dcs=third_party_dcs,
        legacy_probability=spec.legacy_probability,
        third_party_probability=spec.third_party_probability,
    )

    # --------------------------------------------------------------- workload
    num_clients = max(40, int(spec.num_clients * scale))
    population = build_population(
        vantage, num_clients, seed=derive_seed(seed, spec.name, "clients")
    )
    generator = RequestGenerator(
        population=population,
        catalog=catalog,
        profile=DiurnalProfile.residential() if spec.residential else DiurnalProfile.campus(),
        requests_per_day=scaled_rpd,
        interactions=InteractionModel(),
        seed=derive_seed(request_seed, spec.name, "workload"),
    )

    return ScenarioWorld(
        spec=spec,
        scale=scale,
        seed=seed,
        system=system,
        vantage=vantage,
        population=population,
        generator=generator,
        registry=registry,
        latency=latency,
        google_dc_ids=[dc.dc_id for dc in ranked_dcs],
        internal_dc_id=None if internal_dc is None else internal_dc.dc_id,
        duration_s=duration_s,
        policy_kind=policy_kind,
    )
