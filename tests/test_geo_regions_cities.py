"""Tests for the continent taxonomy and the world atlas."""

import pytest

from repro.geo.cities import City, WorldAtlas, default_atlas
from repro.geo.coords import GeoPoint
from repro.geo.regions import Continent, continent_of_country


class TestContinents:
    def test_known_countries(self):
        assert continent_of_country("US") is Continent.NORTH_AMERICA
        assert continent_of_country("it") is Continent.EUROPE
        assert continent_of_country("JP") is Continent.ASIA
        assert continent_of_country("BR") is Continent.SOUTH_AMERICA
        assert continent_of_country("AU") is Continent.OCEANIA
        assert continent_of_country("ZA") is Continent.AFRICA

    def test_unknown_country_raises(self):
        with pytest.raises(KeyError):
            continent_of_country("XX")

    def test_table3_buckets(self):
        assert Continent.NORTH_AMERICA.table3_bucket() == "N. America"
        assert Continent.EUROPE.table3_bucket() == "Europe"
        assert Continent.ASIA.table3_bucket() == "Others"
        assert Continent.SOUTH_AMERICA.table3_bucket() == "Others"


class TestAtlas:
    def test_default_atlas_is_cached(self):
        assert default_atlas() is default_atlas()

    def test_contains_vantage_and_dc_cities(self):
        atlas = default_atlas()
        for name in ("West Lafayette", "Turin", "Madrid", "Amsterdam",
                     "Mountain View", "Tokyo", "Sao Paulo"):
            assert name in atlas

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError):
            default_atlas().get("Atlantis")

    def test_city_continent(self):
        atlas = default_atlas()
        assert atlas.get("Turin").continent is Continent.EUROPE
        assert atlas.get("Chicago").continent is Continent.NORTH_AMERICA

    def test_cities_in_continent_counts(self):
        atlas = default_atlas()
        assert len(atlas.cities_in(Continent.EUROPE)) >= 14
        assert len(atlas.cities_in(Continent.NORTH_AMERICA)) >= 13
        assert len(atlas.cities_in(Continent.AFRICA)) >= 1

    def test_nearest_snaps_to_city(self):
        atlas = default_atlas()
        near_turin = GeoPoint(45.1, 7.7)
        nearest = atlas.nearest(near_turin)
        assert nearest is not None
        assert nearest.name == "Turin"

    def test_nearest_with_max_km(self):
        atlas = default_atlas()
        mid_atlantic = GeoPoint(40.0, -40.0)
        assert atlas.nearest(mid_atlantic, max_km=500.0) is None
        assert atlas.nearest(mid_atlantic) is not None

    def test_duplicate_city_rejected(self):
        city = City("X", "US", GeoPoint(1.0, 1.0))
        with pytest.raises(ValueError):
            WorldAtlas([city, city])

    def test_all_cities_have_known_countries(self):
        for city in default_atlas():
            # raises KeyError if a country is missing from the registry
            assert city.continent is not None
