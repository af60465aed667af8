"""Scenario specifications and world building.

A :class:`ScenarioSpec` captures everything that distinguishes one of the
paper's five datasets: vantage-point geography and access technology,
client population and request volume (Table I), the internal subnet plan
(Figure 12), the DNS-policy quirks (EU2's capacity-limited in-ISP data
center, US-Campus's divergent Net-3 resolvers), and the legacy-traffic mix
(Table II).  :data:`PAPER_SCENARIOS` holds the five as literals, and
:data:`NAMED_SCENARIOS` adds the February-2011 follow-up.

:func:`build_world` turns a spec plus a ``scale`` knob into a runnable
:class:`ScenarioWorld`.  ``scale = 1.0`` reproduces the paper's traffic
volumes (hundreds of thousands of flows per dataset); benchmarks default to
a small scale that preserves every shape at a laptop-friendly cost.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cdn.catalog import DEFAULT_NUM_SHARDS, VideoCatalog, check_catalog_args
from repro.cdn.cluster import CdnSystem, check_cdn_args
from repro.cdn.datacenter import DataCenter, DataCenterDirectory, build_datacenter
from repro.cdn.redirection import RedirectionEngine, check_redirection_args
from repro.cdn.selection import (
    PolicyContext,
    SelectionPolicy,
    check_spill_probability,
    make_policy,
    registered_policy_kinds,
)
from repro.cdn.store import ContentPlacement, check_placement_args
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
from repro.net.latency import AccessTechnology, LatencyModel, Site
from repro.net.topology import Subnet, VantagePoint
from repro.sim.seeding import derive_seed
from repro.trace.records import WEEK_S
from repro.workload.clients import ClientPopulation, build_population
from repro.workload.diurnal import DiurnalProfile
from repro.workload.interactions import InteractionModel
from repro.workload.requests import RequestGenerator

#: Google data centers: (city, fleet size).  13 in the US, 14 in Europe and
#: 6 elsewhere — the 33 data centers the paper finds (Section V).
GOOGLE_DC_PLAN: Tuple[Tuple[str, int], ...] = (
    # United States
    ("Mountain View", 96),
    ("Los Angeles", 48),
    ("Seattle", 48),
    ("Denver", 24),
    ("Dallas", 64),
    ("Houston", 32),
    ("Chicago", 96),
    ("Atlanta", 64),
    ("Miami", 32),
    ("Ashburn", 96),
    ("New York", 64),
    ("Boston", 32),
    ("Kansas City", 24),
    # Europe
    ("Amsterdam", 96),
    ("Frankfurt", 96),
    ("London", 64),
    ("Paris", 64),
    ("Lisbon", 24),
    ("Milan", 48),
    ("Stockholm", 32),
    ("Dublin", 48),
    ("Brussels", 32),
    ("Zurich", 32),
    ("Vienna", 24),
    ("Munich", 32),
    ("Hamburg", 24),
    ("Warsaw", 24),
    # Rest of world
    ("Tokyo", 64),
    ("Singapore", 48),
    ("Hong Kong", 32),
    ("Sydney", 32),
    ("Sao Paulo", 32),
    ("Mumbai", 24),
)

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

_ISP_ASN_EU2 = 3352  # the EU2 host ISP's AS (hosts the in-ISP data center)


def _slug(city_name: str) -> str:
    return city_name.lower().replace(" ", "-").replace(".", "")


@dataclass(frozen=True)
class SubnetSpec:
    """Plan for one internal subnet.

    Attributes:
        name: Subnet label (``"Net-3"``).
        client_share: Fraction of the vantage point's clients homed here.
        divergent_resolver: Whether this subnet's local DNS servers receive
            a *different preferred data center* from YouTube's authoritative
            servers — the Section VII-B mechanism behind Figure 12.
    """

    name: str
    client_share: float
    divergent_resolver: bool = False


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything that distinguishes one dataset's world.

    Volume fields are at paper scale (``scale = 1.0``); see Table I.
    """

    name: str
    vantage_city: str
    access: AccessTechnology
    egress_ms: float
    vantage_asn: int
    subnets: Tuple[SubnetSpec, ...]
    num_clients: int
    requests_per_day: float
    residential: bool
    #: Probability DNS hands out a non-preferred answer as background LB.
    spill_probability: float
    #: Client address space (a /15 split into /18 subnets).  Distinct per
    #: scenario, so no two vantage points' client addresses collide.
    client_block: str = "128.210.0.0/15"
    #: Host an in-ISP data center (the EU2 situation)?
    internal_dc: bool = False
    #: DNS-assignment capacity of the internal data center, as a fraction of
    #: the *mean* hourly request rate (Section VII-A load balancing).
    internal_dc_cap_of_mean: float = 0.55
    #: Per-server serve capacity as a multiple of the preferred data
    #: center's mean per-server load (Section VII-C hot-spots).
    server_capacity_multiple: float = 6.0
    #: Chance a request also fetches a legacy (AS 43515) asset.
    legacy_probability: float = 0.06
    #: Chance of a third-party (CW/GBLX) asset flow.
    third_party_probability: float = 0.008
    #: Baseline intra-data-center rebalance probability.
    rebalance_probability: float = 0.14
    #: Chance a content miss is fetched from the canonical origin copy.
    origin_fetch_probability: float = 0.35
    #: Pin these vantage→data-center detours (ms); used to engineer RTT
    #: rankings, e.g. US-Campus's far-but-fast preferred data center.
    detour_pins: Tuple[Tuple[str, float], ...] = ()
    #: Catalog size as a fraction of the week's request count.
    catalog_per_request: float = 0.6
    #: Zipf exponent of the catalog's popularity distribution.
    zipf_alpha: float = 1.0
    #: Share of requests captured by the day's featured video.
    featured_share: float = 0.10
    #: Fraction of request mass whose videos are replicated everywhere.
    replicated_mass: float = 0.75
    #: Chance a tail video is already present at a data center at t=0.
    regional_presence_prob: float = 0.8
    #: Per-data-center cap on pulled-through tail videos (LRU eviction
    #: beyond it); ``None`` = effectively infinite over one trace week.
    cache_capacity: Optional[int] = None
    #: Enable local-resolver answer caching (off by default: YouTube's
    #: short TTLs keep per-request control at the authoritative side).
    dns_cache_enabled: bool = False
    #: TTL of authoritative answers, seconds (only matters when resolver
    #: caching is enabled).
    dns_ttl_s: float = 20.0
    #: Drain the preferred data center at the DNS level (zero assignment
    #: budget) — an outage / maintenance what-if.
    drain_preferred: bool = False
    #: Force this data center to the top of every resolver's ranking,
    #: regardless of RTT.  Models the paper's February-2011 observation
    #: that "the majority of US-Campus video requests are directed to a
    #: data center with an RTT of more than 100 ms and not to the closest
    #: data center": the preferred data center is an assignment, and
    #: YouTube can (and did) re-assign it away from the RTT optimum.
    preferred_override: Optional[str] = None
    #: Extra Google-fleet data centers beyond :data:`GOOGLE_DC_PLAN`, as
    #: (city, fleet size) pairs — the topology axis for what-if deltas.
    extra_dcs: Tuple[Tuple[str, int], ...] = ()
    #: Cities removed from :data:`GOOGLE_DC_PLAN` (drained/decommissioned
    #: data-center what-ifs; the complementary half of the topology axis).
    removed_dcs: Tuple[str, ...] = ()

    def check_ranges(self) -> None:
        """Run the world builder's range checks, before anything simulates.

        Each check is the one the component's constructor runs.

        Raises:
            ValueError: Naming the first out-of-range field and its value.
        """
        check_spill_probability(self.spill_probability)
        check_catalog_args(self.featured_share)
        check_placement_args(
            self.replicated_mass, self.regional_presence_prob, self.cache_capacity
        )
        check_redirection_args(
            self.rebalance_probability, origin_fetch_probability=self.origin_fetch_probability
        )
        check_cdn_args(self.legacy_probability, self.third_party_probability)

    def diurnal_profile(self) -> DiurnalProfile:
        """The arrival profile matching the vantage point's nature."""
        return DiurnalProfile.residential() if self.residential else DiurnalProfile.campus()

    def effective_dc_plan(self) -> Tuple[Tuple[str, int], ...]:
        """The Google data-center plan this scenario actually builds:
        the shared :data:`GOOGLE_DC_PLAN` minus :attr:`removed_dcs` plus
        :attr:`extra_dcs`.

        Raises:
            ValueError: If :attr:`removed_dcs` names an absent city or
                the effective plan holds duplicate cities.
        """
        removed = set(self.removed_dcs)
        known = {city for city, _size in GOOGLE_DC_PLAN}
        unknown = sorted(removed - known)
        if unknown:
            raise ValueError(f"removed_dcs name no known data center: {unknown}")
        plan = tuple(
            pair for pair in GOOGLE_DC_PLAN if pair[0] not in removed
        ) + tuple(self.extra_dcs)
        cities = [city for city, _size in plan]
        if len(set(cities)) != len(cities):
            raise ValueError(f"duplicate data-center cities in plan: {cities}")
        return plan


#: The five datasets of Table I, in the paper's order.  Request volumes
#: are derived from the paper's weekly flow counts (flows ≈ 1.3 ×
#: requests).
PAPER_SCENARIOS: Dict[str, ScenarioSpec] = {
    "US-Campus": ScenarioSpec(
        name="US-Campus",
        vantage_city="West Lafayette",
        access=AccessTechnology.CAMPUS,
        egress_ms=10.0,
        vantage_asn=17,
        subnets=(
            SubnetSpec("Net-1", 0.30),
            SubnetSpec("Net-2", 0.27),
            # Net-3's local DNS servers receive a *different* preferred
            # data center from YouTube's authoritative servers — the
            # Section VII-B mechanism behind Figure 12.
            SubnetSpec("Net-3", 0.04, divergent_resolver=True),
            SubnetSpec("Net-4", 0.22),
            SubnetSpec("Net-5", 0.17),
        ),
        num_clients=20443,
        requests_per_day=94600.0,
        residential=False,
        spill_probability=0.02,
        client_block="128.210.0.0/15",
        # The five geographically closest data centers are reached over
        # congested transit, so the lowest-RTT data center is a far one —
        # the Figure 8 anomaly.
        detour_pins=(
            ("dc-ashburn", 25.0),
            ("dc-atlanta", 25.0),
            ("dc-chicago", 25.0),
            ("dc-dallas", 0.0),
            ("dc-kansas-city", 25.0),
            ("dc-new-york", 25.0),
        ),
    ),
    "EU1-Campus": ScenarioSpec(
        name="EU1-Campus",
        vantage_city="Turin",
        access=AccessTechnology.CAMPUS,
        egress_ms=4.0,
        vantage_asn=137,
        subnets=(SubnetSpec("Net-1", 0.55), SubnetSpec("Net-2", 0.45)),
        num_clients=1113,
        requests_per_day=14600.0,
        residential=False,
        spill_probability=0.04,
        client_block="130.192.0.0/15",
        detour_pins=(("dc-milan", 0.0),),
    ),
    "EU1-ADSL": ScenarioSpec(
        name="EU1-ADSL",
        vantage_city="Turin",
        access=AccessTechnology.ADSL,
        egress_ms=3.0,
        vantage_asn=3269,
        subnets=(
            SubnetSpec("Net-1", 0.40),
            SubnetSpec("Net-2", 0.35),
            SubnetSpec("Net-3", 0.25),
        ),
        num_clients=8348,
        requests_per_day=94900.0,
        residential=True,
        spill_probability=0.04,
        client_block="151.52.0.0/15",
        detour_pins=(("dc-milan", 0.0),),
    ),
    "EU1-FTTH": ScenarioSpec(
        name="EU1-FTTH",
        vantage_city="Turin",
        access=AccessTechnology.FTTH,
        egress_ms=2.0,
        vantage_asn=3269,
        subnets=(SubnetSpec("Net-1", 0.60), SubnetSpec("Net-2", 0.40)),
        num_clients=997,
        requests_per_day=9900.0,
        residential=True,
        spill_probability=0.04,
        client_block="151.54.0.0/15",
        detour_pins=(("dc-milan", 0.0),),
    ),
    "EU2": ScenarioSpec(
        name="EU2",
        vantage_city="Madrid",
        access=AccessTechnology.ADSL,
        egress_ms=3.0,
        vantage_asn=_ISP_ASN_EU2,
        subnets=(
            SubnetSpec("Net-1", 0.40),
            SubnetSpec("Net-2", 0.35),
            SubnetSpec("Net-3", 0.25),
        ),
        num_clients=6552,
        requests_per_day=55500.0,
        residential=True,
        spill_probability=0.01,
        client_block="81.32.0.0/15",
        internal_dc=True,
        internal_dc_cap_of_mean=0.55,
        legacy_probability=0.22,
    ),
}

#: Every named scenario: the Table-I datasets plus the paper's
#: February-2011 follow-up.  "In a more recent dataset collected in
#: February 2011, we found that the majority of US-Campus video requests
#: are directed to a data center with an RTT of more than 100 ms and not
#: to the closest data center, which is around 30 ms away."  The
#: re-assignment is US-Campus with its preferred data center overridden
#: to Mountain View over a detoured (+55 ms) path.
NAMED_SCENARIOS: Dict[str, ScenarioSpec] = {
    **PAPER_SCENARIOS,
    "US-Campus-Feb2011": replace(
        PAPER_SCENARIOS["US-Campus"],
        name="US-Campus-Feb2011",
        detour_pins=(
            ("dc-ashburn", 25.0),
            ("dc-atlanta", 25.0),
            ("dc-chicago", 25.0),
            ("dc-dallas", 0.0),
            ("dc-kansas-city", 25.0),
            ("dc-mountain-view", 55.0),
            ("dc-new-york", 25.0),
        ),
        preferred_override="dc-mountain-view",
    ),
}


def named_scenario(name: str) -> ScenarioSpec:
    """The :data:`NAMED_SCENARIOS` entry for ``name`` (grid bases, monitor bases).

    Raises:
        KeyError: For unknown names.
    """
    try:
        return NAMED_SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; expected one of {tuple(NAMED_SCENARIOS)}"
        ) from None


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

    def site_of_server_ip(self, server_ip: int) -> Optional[Site]:
        """Network position of a server address seen in the trace.

        This is what active measurement tools "see": they can ping an IP,
        which physically means reaching the machine wherever it is.
        """
        server = self.system.directory.server_at(server_ip)
        if server is None:
            return None
        return self.system.server_site(server)


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
        raise ValueError(
            f"unknown policy {policy_kind!r}; registered policies: "
            f"{', '.join(registered_policy_kinds())}"
        )
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
        profile=spec.diurnal_profile(),
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
