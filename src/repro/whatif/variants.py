"""Scenario variants: controlled perturbations of a baseline world.

A variant is a named delta — a mapping of
:class:`~repro.sim.scenarios.ScenarioSpec` field → value, the same shape
grid points and monitor epochs use — so a variant equal to a grid point
builds the same world and shares that point's cached artifacts.  The
standard library below covers the design dimensions DESIGN.md calls out
for ablation and the paper's own what-if motivations: selection policy,
data-center capacity, popularity shape, content availability, and flash
crowds.

The selection policy rides inside the delta as the ``"policy"`` key;
:attr:`Variant.policy_kind` reads it back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Mapping

from repro.sim.scenarios import ScenarioSpec
from repro.spec.model import apply_to_scenario


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

    @property
    def policy_kind(self) -> str:
        """Selection policy for the variant's world (the ``"policy"``
        key of the delta; ``"preferred"`` when unset)."""
        return self.changes.get("policy", "preferred")

    def apply(self, spec: ScenarioSpec) -> ScenarioSpec:
        """The variant's scenario, derived from a baseline scenario.

        An empty delta returns the baseline object untouched, so the
        baseline variant is an exact identity.

        Raises:
            SpecError: If the delta cannot apply to this baseline.
        """
        scenario, _policy = apply_to_scenario(spec, self.changes)
        return scenario


def baseline_variant() -> Variant:
    """The unmodified scenario, for reference rows."""
    return Variant(name="baseline", description="unmodified scenario")


def standard_variants() -> List[Variant]:
    """The standard what-if library.

    Returns:
        Variants covering the ablation dimensions: selection policy,
        capacity, popularity shape, availability, and demand spikes.
    """
    return [
        baseline_variant(),
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
