"""Tests for the synthetic PlanetLab landmark population."""

import pytest

from repro.geo.cities import default_atlas
from repro.geo.coords import haversine_km
from repro.geo.landmarks import (
    PAPER_LANDMARK_MIX,
    Landmark,
    LandmarkSet,
    generate_landmarks,
)
from repro.geo.regions import Continent


def on_continent(landmarks, continent):
    """How many landmarks sit on one continent."""
    return sum(1 for lm in landmarks if lm.continent is continent)


class TestGeneration:
    def test_paper_mix_totals_215(self):
        assert sum(PAPER_LANDMARK_MIX.values()) == 215

    def test_default_generation_matches_mix(self):
        landmarks = generate_landmarks(seed=1)
        assert len(landmarks) == 215
        for continent, expected in PAPER_LANDMARK_MIX.items():
            assert on_continent(landmarks, continent) == expected

    def test_deterministic(self):
        a = generate_landmarks(seed=42)
        b = generate_landmarks(seed=42)
        assert [lm.point for lm in a] == [lm.point for lm in b]

    def test_different_seeds_differ(self):
        a = generate_landmarks(seed=1)
        b = generate_landmarks(seed=2)
        assert [lm.point for lm in a] != [lm.point for lm in b]

    def test_landmarks_near_anchor_cities(self):
        atlas = default_atlas()
        for lm in generate_landmarks(seed=3):
            anchor = atlas.get(lm.anchor_city)
            assert haversine_km(lm.point, anchor.point) <= 41.0

    def test_unique_names(self):
        names = [lm.name for lm in generate_landmarks(seed=4)]
        assert len(set(names)) == len(names)

    def test_custom_mix(self):
        mix = {Continent.EUROPE: 5, Continent.ASIA: 2}
        landmarks = generate_landmarks(mix=mix, seed=0)
        assert len(landmarks) == 7
        assert on_continent(landmarks, Continent.EUROPE) == 5


class TestLandmarkSet:
    def test_indexing_and_iteration(self):
        landmarks = generate_landmarks(seed=5)
        assert isinstance(landmarks[0], Landmark)
        assert len(list(landmarks)) == len(landmarks)

    def test_duplicate_names_rejected(self):
        lm = generate_landmarks(seed=6)[0]
        with pytest.raises(ValueError):
            LandmarkSet([lm, lm])

    def test_subsample_size_and_balance(self):
        landmarks = generate_landmarks(seed=7)
        sub = landmarks.subsample(40, seed=1)
        assert len(sub) == 40
        # Subsample keeps a presence on the two big continents.
        assert on_continent(sub, Continent.NORTH_AMERICA) >= 10
        assert on_continent(sub, Continent.EUROPE) >= 8

    def test_subsample_noop_when_large(self):
        landmarks = generate_landmarks(seed=8)
        assert landmarks.subsample(500) is landmarks

    def test_subsample_deterministic(self):
        landmarks = generate_landmarks(seed=9)
        a = landmarks.subsample(30, seed=2)
        b = landmarks.subsample(30, seed=2)
        assert [lm.name for lm in a] == [lm.name for lm in b]
