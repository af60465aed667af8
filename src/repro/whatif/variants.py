"""Scenario variants: controlled perturbations of a baseline world.

A variant is a named delta — a mapping of
:class:`~repro.sim.specs.ScenarioSpec` field → value, the same shape
grid points and monitor epochs use — so a variant equal to a grid point
builds the same world and shares that point's cached artifacts.  The
standard library below covers the design dimensions DESIGN.md calls out
for ablation and the paper's own what-if motivations: selection policy,
data-center capacity, popularity shape, content availability, and flash
crowds.

The selection policy rides inside the delta as the ``"policy"`` key,
which :func:`repro.spec.model.apply_to_scenario` routes to the world's
policy.  A comparison of variants is a one-axis ``"variant"`` grid
(:func:`repro.spec.runner.run_grid`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Mapping


@dataclass(frozen=True)
class Variant:
    """One named what-if scenario.

    Attributes:
        name: Short identifier (``"old-policy"``).
        description: One-line human explanation.
        changes: Field → value assignments against the baseline
            scenario, plus the optional ``"policy"`` key (empty for the
            baseline).
    """

    name: str
    description: str
    changes: Mapping[str, Any] = field(default_factory=dict)


def standard_variants() -> List[Variant]:
    """The standard what-if library.

    Returns:
        Variants covering the ablation dimensions: selection policy,
        capacity, popularity shape, availability, and demand spikes.
    """
    return [
        Variant(name="baseline", description="unmodified scenario"),
        Variant(
            name="old-policy",
            description="pre-Google selection: data centers by size, no locality",
            changes={"policy": "proportional"},
        ),
        Variant(
            name="double-capacity",
            description="double per-server serve capacity (hot-spots absorbed locally)",
            changes={"server_capacity_multiple": 12.0},
        ),
        Variant(
            name="half-capacity",
            description="halve per-server serve capacity (more overflow redirection)",
            changes={"server_capacity_multiple": 3.0},
        ),
        Variant(
            name="flash-crowd",
            description="the daily featured video absorbs 25% of requests",
            changes={"featured_share": 0.25},
        ),
        Variant(
            name="flat-popularity",
            description="flatter popularity (zipf alpha 0.6): a longer effective tail",
            changes={"zipf_alpha": 0.6},
        ),
        Variant(
            name="sparse-replication",
            description="tail content rarely pre-positioned (regional presence 0.3)",
            changes={"regional_presence_prob": 0.3},
        ),
        Variant(
            name="no-spill",
            description="DNS never load-balances away from the preferred data center",
            changes={"spill_probability": 0.0},
        ),
        Variant(
            name="tiny-edge-cache",
            description="edge caches hold only 25 pulled-through tail videos (LRU)",
            changes={"cache_capacity": 25, "regional_presence_prob": 0.3},
        ),
        Variant(
            name="geo-policy",
            description="idealised selection by geographic distance instead of RTT",
            changes={"policy": "geographic"},
        ),
        Variant(
            name="sticky-dns",
            description="resolvers cache answers for 30 min: DNS-level control "
                        "coarsens and the app layer picks up the slack",
            changes={"dns_cache_enabled": True, "dns_ttl_s": 1800.0},
        ),
        Variant(
            name="preferred-outage",
            description="the preferred data center is drained at the DNS level "
                        "(maintenance): everything lands one rank down",
            changes={"drain_preferred": True},
        ),
    ]


def variant_by_name(name: str) -> Variant:
    """Look up a standard variant.

    Raises:
        KeyError: For unknown variant names.
    """
    for variant in standard_variants():
        if variant.name == name:
            return variant
    raise KeyError(
        f"unknown variant {name!r}; known: {[v.name for v in standard_variants()]}"
    )
