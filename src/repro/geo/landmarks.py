"""Synthetic PlanetLab-like landmark set.

The paper runs CBG with 215 PlanetLab landmarks: 97 in North America, 82 in
Europe, 24 in Asia, 8 in South America, 3 in Oceania and 1 in Africa
(Section V).  We regenerate a landmark population with the same continental
mix by scattering nodes around the atlas's cities — PlanetLab nodes live at
universities in metro areas, so "city plus a few tens of km of jitter" is the
right spatial texture.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

from repro.geo.cities import WorldAtlas, default_atlas
from repro.geo.coords import GeoPoint, destination_point
from repro.geo.regions import Continent

#: The paper's continental mix of the 215 PlanetLab landmarks.
PAPER_LANDMARK_MIX: Dict[Continent, int] = {
    Continent.NORTH_AMERICA: 97,
    Continent.EUROPE: 82,
    Continent.ASIA: 24,
    Continent.SOUTH_AMERICA: 8,
    Continent.OCEANIA: 3,
    Continent.AFRICA: 1,
}

#: Maximum scatter of a landmark around its anchor city, in km.
_MAX_SCATTER_KM = 40.0


@dataclass(frozen=True)
class Landmark:
    """A measurement vantage with a known location.

    Attributes:
        name: Unique landmark name, e.g. ``"planetlab-na-007"``.
        point: True location (known to the geolocator — landmarks are the
            reference points CBG calibrates against).
        continent: Continent the landmark is on.
        anchor_city: Name of the city the landmark was scattered around.
    """

    name: str
    point: GeoPoint
    continent: Continent
    anchor_city: str


class LandmarkSet:
    """An ordered, immutable collection of landmarks."""

    def __init__(self, landmarks: Sequence[Landmark]):
        self._landmarks: List[Landmark] = list(landmarks)
        names = [lm.name for lm in self._landmarks]
        if len(set(names)) != len(names):
            raise ValueError("duplicate landmark names")

    def __len__(self) -> int:
        return len(self._landmarks)

    def __iter__(self) -> Iterator[Landmark]:
        return iter(self._landmarks)

    def __getitem__(self, index: int) -> Landmark:
        return self._landmarks[index]

    def subsample(self, count: int, seed: int = 0) -> "LandmarkSet":
        """A deterministic random subset preserving the continental balance.

        Useful for cheap test runs: CBG degrades gracefully with fewer
        landmarks, so tests can use e.g. 40 landmarks while benchmarks use
        the full 215.
        """
        if count >= len(self._landmarks):
            return self
        rng = random.Random(seed)
        by_continent: Dict[Continent, List[Landmark]] = {}
        for lm in self._landmarks:
            by_continent.setdefault(lm.continent, []).append(lm)
        chosen: List[Landmark] = []
        total = len(self._landmarks)
        for continent, members in sorted(by_continent.items(), key=lambda kv: kv[0].name):
            take = max(1, round(count * len(members) / total))
            chosen.extend(rng.sample(members, min(take, len(members))))
        rng.shuffle(chosen)
        return LandmarkSet(chosen[:count])


_CONTINENT_SLUG = {
    Continent.NORTH_AMERICA: "na",
    Continent.EUROPE: "eu",
    Continent.ASIA: "as",
    Continent.SOUTH_AMERICA: "sa",
    Continent.OCEANIA: "oc",
    Continent.AFRICA: "af",
}


def generate_landmarks(
    mix: Optional[Dict[Continent, int]] = None,
    seed: int = 42,
    atlas: Optional[WorldAtlas] = None,
) -> LandmarkSet:
    """Generate a landmark population with the requested continental mix.

    Args:
        mix: Number of landmarks per continent; defaults to the paper's
            215-node PlanetLab mix.
        seed: Seed for the deterministic scatter.
        atlas: City atlas to anchor landmarks to; defaults to the shared one.

    Returns:
        A :class:`LandmarkSet` of ``sum(mix.values())`` landmarks.
    """
    if mix is None:
        mix = PAPER_LANDMARK_MIX
    if atlas is None:
        atlas = default_atlas()
    rng = random.Random(seed)
    landmarks: List[Landmark] = []
    for continent in sorted(mix, key=lambda c: c.name):
        count = mix[continent]
        anchors = atlas.cities_in(continent)
        if not anchors:
            raise ValueError(f"no anchor cities on {continent.label}")
        for i in range(count):
            city = anchors[i % len(anchors)]
            bearing = rng.uniform(0.0, 360.0)
            scatter = rng.uniform(0.0, _MAX_SCATTER_KM)
            point = destination_point(city.point, bearing, scatter)
            landmarks.append(
                Landmark(
                    name=f"planetlab-{_CONTINENT_SLUG[continent]}-{i:03d}",
                    point=point,
                    continent=continent,
                    anchor_city=city.name,
                )
            )
    return LandmarkSet(landmarks)
