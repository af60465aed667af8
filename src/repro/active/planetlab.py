"""PlanetLab experiment nodes.

"The video was then downloaded from 45 PlanetLab nodes around the world.
Nodes were carefully selected so that most of them had different preferred
data centers."  We reproduce the selection pressure directly: nodes are
placed one per city, cycling through continents, so their RTT rankings
genuinely differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.geo.cities import City, WorldAtlas, default_atlas
from repro.geo.coords import destination_point
from repro.geo.regions import Continent
from repro.net.ip import parse_network
from repro.net.latency import AccessTechnology, Site

#: Address block the experiment nodes live in (benchmarking range).
_NODE_BLOCK = parse_network("198.18.0.0/16")

#: Continent rotation used when picking node cities.
_CONTINENT_ORDER = (
    Continent.NORTH_AMERICA,
    Continent.EUROPE,
    Continent.ASIA,
    Continent.NORTH_AMERICA,
    Continent.EUROPE,
    Continent.SOUTH_AMERICA,
    Continent.OCEANIA,
)


@dataclass(frozen=True)
class PlanetLabNode:
    """One experiment node.

    Attributes:
        name: Node name, e.g. ``"pl-03-chicago"``.
        city: Host city.
        ip: The node's client address.
    """

    name: str
    city: City
    ip: int

    @property
    def site(self) -> Site:
        """The node's network position (universities → campus access)."""
        return Site(
            key=f"pl:{self.name}",
            point=destination_point(self.city.point, 45.0, 12.0),
            access=AccessTechnology.CAMPUS,
            group=f"pl:{self.name}",
        )


def build_planetlab_nodes(
    count: int = 45, atlas: Optional[WorldAtlas] = None
) -> List[PlanetLabNode]:
    """Pick ``count`` nodes, one per city, rotating through continents.

    Args:
        count: Number of nodes (the paper used 45).
        atlas: City atlas.

    Returns:
        The node list.

    Raises:
        ValueError: If the atlas cannot supply enough distinct cities.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if atlas is None:
        atlas = default_atlas()
    pools = {c: list(atlas.cities_in(c)) for c in dict.fromkeys(_CONTINENT_ORDER)}
    nodes: List[PlanetLabNode] = []
    used = set()
    slot = 0
    while len(nodes) < count:
        continent = _CONTINENT_ORDER[slot % len(_CONTINENT_ORDER)]
        slot += 1
        pool = pools.get(continent, [])
        city = next((c for c in pool if c.name not in used), None)
        if city is None:
            # This continent is exhausted; steal from the biggest pool.
            leftovers = [c for p in pools.values() for c in p if c.name not in used]
            if not leftovers:
                raise ValueError(f"atlas too small for {count} distinct node cities")
            city = leftovers[0]
        used.add(city.name)
        index = len(nodes)
        slug = city.name.lower().replace(" ", "-").replace(".", "")
        nodes.append(
            PlanetLabNode(
                name=f"pl-{index:02d}-{slug}",
                city=city,
                ip=_NODE_BLOCK.first + 256 + index,
            )
        )
    return nodes
