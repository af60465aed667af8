"""The scenario specifications: one :class:`ScenarioSpec` per dataset.

A :class:`ScenarioSpec` captures everything that distinguishes one of the
paper's five datasets: vantage-point geography and access technology,
client population and request volume (Table I), the internal subnet plan
(Figure 12), the DNS-policy quirks (EU2's capacity-limited in-ISP data
center, US-Campus's divergent Net-3 resolvers), and the legacy-traffic mix
(Table II).  :data:`PAPER_SCENARIOS` holds the five as literals, and
:data:`NAMED_SCENARIOS` adds the February-2011 follow-up.

This module is data only: it imports none of the simulator, so a study
that reads its weeks from the artifact cache can key them without
loading the CDN model.  :func:`repro.sim.scenarios.build_world` turns a
spec into a runnable world.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.net.latency import AccessTechnology

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

_ISP_ASN_EU2 = 3352  # the EU2 host ISP's AS (hosts the in-ISP data center)


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
        from repro.cdn.catalog import check_catalog_args
        from repro.cdn.cluster import check_cdn_args
        from repro.cdn.redirection import check_redirection_args
        from repro.cdn.selection import check_spill_probability
        from repro.cdn.store import check_placement_args

        check_spill_probability(self.spill_probability)
        check_catalog_args(self.featured_share)
        check_placement_args(
            self.replicated_mass, self.regional_presence_prob, self.cache_capacity
        )
        check_redirection_args(
            self.rebalance_probability, origin_fetch_probability=self.origin_fetch_probability
        )
        check_cdn_args(self.legacy_probability, self.third_party_probability)

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
