"""Named scenario specs: the paper's datasets as declarative deltas.

The five Table-I datasets — and the February-2011 follow-up — are each a
:class:`~repro.spec.model.Spec` applied to one :data:`BARE_BASE`
skeleton.  :data:`~repro.sim.scenarios.PAPER_SCENARIOS` and
:func:`~repro.sim.scenarios.february_2011_us_campus` are thin wrappers
over this module, so the materialised scenarios are value-identical to
the historical hand-written constructors (byte-identical study digests),
while every dataset is now diffable, composable and grid-extensible like
any other spec.
"""

from __future__ import annotations

from typing import Dict

from repro.net.latency import AccessTechnology
from repro.sim.scenarios import DATASET_NAMES, ScenarioSpec, SubnetSpec
from repro.spec.info import ScenarioInfo
from repro.spec.model import Spec, apply_to_scenario

#: The skeleton every named dataset delta applies to: one vantage, one
#: subnet, default knobs.  Its values are deliberately boring — every
#: dataset spec overrides all identity pars — but it must be a *valid*
#: buildable scenario so partial deltas (grids, tests) apply cleanly.
BARE_BASE = ScenarioSpec(
    name="bare-base",
    vantage_city="Turin",
    access=AccessTechnology.CAMPUS,
    egress_ms=5.0,
    vantage_asn=64512,
    subnets=(SubnetSpec("Net-1", 1.0),),
    num_clients=1000,
    requests_per_day=10000.0,
    residential=False,
    spill_probability=0.02,
)

#: :data:`BARE_BASE`'s single subnet, in set-element form.
_BARE_SUBNET = ("Net-1", 1.0, False)

_ISP_ASN_EU2 = 3352  # the EU2 host ISP's AS (hosts the in-ISP data center)


def _dataset_spec(*, subnets, detours=(), **pars) -> Spec:
    """A Table-I dataset as a delta: swap the subnet plan, add detour
    pins, assign identity/volume pars."""
    return Spec(
        remove=ScenarioInfo(sets={"subnet": [_BARE_SUBNET]}),
        add=ScenarioInfo(sets={"subnet": subnets, "detour": detours}, pars=pars),
    )


#: The five datasets of Table I as specs.  Request volumes are derived
#: from the paper's weekly flow counts (flows ≈ 1.3 × requests).
DATASET_SPECS: Dict[str, Spec] = {
    "US-Campus": _dataset_spec(
        name="US-Campus",
        vantage_city="West Lafayette",
        access="CAMPUS",
        egress_ms=10.0,
        vantage_asn=17,
        subnets=[
            ("Net-1", 0.30, False),
            ("Net-2", 0.27, False),
            # Net-3's local DNS servers receive a *different* preferred
            # data center from YouTube's authoritative servers — the
            # Section VII-B mechanism behind Figure 12.
            ("Net-3", 0.04, True),
            ("Net-4", 0.22, False),
            ("Net-5", 0.17, False),
        ],
        # The five geographically closest data centers are reached over
        # congested transit, so the lowest-RTT data center is a far one —
        # the Figure 8 anomaly.
        detours=[
            ("dc-chicago", 25.0),
            ("dc-kansas-city", 25.0),
            ("dc-atlanta", 25.0),
            ("dc-ashburn", 25.0),
            ("dc-new-york", 25.0),
            ("dc-dallas", 0.0),
        ],
        num_clients=20443,
        client_block="128.210.0.0/15",
        requests_per_day=94600.0,
        residential=False,
        spill_probability=0.02,
    ),
    "EU1-Campus": _dataset_spec(
        name="EU1-Campus",
        vantage_city="Turin",
        access="CAMPUS",
        egress_ms=4.0,
        vantage_asn=137,
        subnets=[("Net-1", 0.55, False), ("Net-2", 0.45, False)],
        detours=[("dc-milan", 0.0)],
        num_clients=1113,
        client_block="130.192.0.0/15",
        requests_per_day=14600.0,
        residential=False,
        spill_probability=0.04,
    ),
    "EU1-ADSL": _dataset_spec(
        name="EU1-ADSL",
        vantage_city="Turin",
        access="ADSL",
        egress_ms=3.0,
        vantage_asn=3269,
        subnets=[
            ("Net-1", 0.40, False),
            ("Net-2", 0.35, False),
            ("Net-3", 0.25, False),
        ],
        detours=[("dc-milan", 0.0)],
        num_clients=8348,
        client_block="151.52.0.0/15",
        requests_per_day=94900.0,
        residential=True,
        spill_probability=0.04,
    ),
    "EU1-FTTH": _dataset_spec(
        name="EU1-FTTH",
        vantage_city="Turin",
        access="FTTH",
        egress_ms=2.0,
        vantage_asn=3269,
        subnets=[("Net-1", 0.60, False), ("Net-2", 0.40, False)],
        detours=[("dc-milan", 0.0)],
        num_clients=997,
        client_block="151.54.0.0/15",
        requests_per_day=9900.0,
        residential=True,
        spill_probability=0.04,
    ),
    "EU2": _dataset_spec(
        name="EU2",
        vantage_city="Madrid",
        access="ADSL",
        egress_ms=3.0,
        vantage_asn=_ISP_ASN_EU2,
        subnets=[
            ("Net-1", 0.40, False),
            ("Net-2", 0.35, False),
            ("Net-3", 0.25, False),
        ],
        num_clients=6552,
        client_block="81.32.0.0/15",
        requests_per_day=55500.0,
        residential=True,
        spill_probability=0.01,
        internal_dc=True,
        internal_dc_cap_of_mean=0.55,
        legacy_probability=0.22,
    ),
}

#: The paper's February-2011 follow-up, as a *delta on the US-Campus
#: spec*: "the majority of US-Campus video requests are directed to a
#: data center with an RTT of more than 100 ms and not to the closest
#: data center".  The re-assignment is modelled by overriding the
#: preferred data center to Mountain View over a detoured (+55 ms) path.
FEB_2011_DELTA = Spec(
    add=ScenarioInfo(
        sets={"detour": [("dc-mountain-view", 55.0)]},
        pars={
            "name": "US-Campus-Feb2011",
            "preferred_override": "dc-mountain-view",
        },
    )
)

_SPECS: Dict[str, Spec] = dict(DATASET_SPECS)
_SPECS["US-Campus-Feb2011"] = DATASET_SPECS["US-Campus"].compose(FEB_2011_DELTA)

_MATERIALIZED: Dict[str, ScenarioSpec] = {}


def named_spec(name: str) -> Spec:
    """The registered delta for ``name``.

    Raises:
        KeyError: For unknown names.
    """
    try:
        return _SPECS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario spec {name!r}; expected one of {tuple(_SPECS)}"
        ) from None


def scenario_spec(name: str) -> ScenarioSpec:
    """The materialised :class:`ScenarioSpec` for a registered name.

    Materialisation applies the named delta to :data:`BARE_BASE` once and
    memoises the result, so repeated lookups (and the
    ``PAPER_SCENARIOS`` wrapper) return the identical object.

    Raises:
        KeyError: For unknown names.
    """
    delta = named_spec(name)
    if name not in _MATERIALIZED:
        scenario, _policy = apply_to_scenario(BARE_BASE, delta)
        _MATERIALIZED[name] = scenario
    return _MATERIALIZED[name]


def paper_scenarios() -> Dict[str, ScenarioSpec]:
    """The five Table-I scenarios, materialised, in the paper's order."""
    return {name: scenario_spec(name) for name in DATASET_NAMES}
