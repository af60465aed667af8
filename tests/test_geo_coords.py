"""Unit and property tests for spherical geometry primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.coords import (
    EARTH_RADIUS_KM,
    GeoPoint,
    destination_point,
    haversine_km,
    haversine_km_many,
)

lat_strategy = st.floats(min_value=-89.0, max_value=89.0)
lon_strategy = st.floats(min_value=-179.9, max_value=179.9)


def points(draw_lat, draw_lon):
    return GeoPoint(draw_lat, draw_lon)


class TestGeoPoint:
    def test_valid_construction(self):
        p = GeoPoint(45.07, 7.687)
        assert p.lat == 45.07
        assert p.lon == 7.687

    def test_rejects_bad_latitude(self):
        with pytest.raises(ValueError):
            GeoPoint(91.0, 0.0)
        with pytest.raises(ValueError):
            GeoPoint(-90.5, 0.0)

    def test_rejects_bad_longitude(self):
        with pytest.raises(ValueError):
            GeoPoint(0.0, 181.0)

    def test_str_hemispheres(self):
        assert "N" in str(GeoPoint(10.0, 20.0))
        assert "S" in str(GeoPoint(-10.0, 20.0))
        assert "W" in str(GeoPoint(10.0, -20.0))

    def test_distance_method_matches_function(self):
        a = GeoPoint(40.0, -86.0)
        b = GeoPoint(41.9, -87.6)
        assert a.distance_km(b) == haversine_km(a, b)


class TestHaversine:
    def test_zero_distance(self):
        p = GeoPoint(45.0, 7.0)
        assert haversine_km(p, p) == 0.0

    def test_known_distance_turin_milan(self):
        turin = GeoPoint(45.070, 7.687)
        milan = GeoPoint(45.464, 9.190)
        d = haversine_km(turin, milan)
        assert 115 <= d <= 135  # ~125 km

    def test_known_distance_transatlantic(self):
        ny = GeoPoint(40.713, -74.006)
        london = GeoPoint(51.507, -0.128)
        d = haversine_km(ny, london)
        assert 5400 <= d <= 5700  # ~5570 km

    def test_antipodal_bound(self):
        a = GeoPoint(0.0, 0.0)
        b = GeoPoint(0.0, 180.0)
        d = haversine_km(a, b)
        assert d == pytest.approx(math.pi * EARTH_RADIUS_KM, rel=1e-6)

    @given(lat_strategy, lon_strategy, lat_strategy, lon_strategy)
    @settings(max_examples=80)
    def test_symmetry(self, lat1, lon1, lat2, lon2):
        a, b = GeoPoint(lat1, lon1), GeoPoint(lat2, lon2)
        assert haversine_km(a, b) == pytest.approx(haversine_km(b, a), abs=1e-9)

    @given(lat_strategy, lon_strategy, lat_strategy, lon_strategy)
    @settings(max_examples=80)
    def test_non_negative_and_bounded(self, lat1, lon1, lat2, lon2):
        d = haversine_km(GeoPoint(lat1, lon1), GeoPoint(lat2, lon2))
        assert 0.0 <= d <= math.pi * EARTH_RADIUS_KM + 1e-6

    @given(
        lat_strategy, lon_strategy, lat_strategy, lon_strategy,
        lat_strategy, lon_strategy,
    )
    @settings(max_examples=60)
    def test_triangle_inequality(self, lat1, lon1, lat2, lon2, lat3, lon3):
        a = GeoPoint(lat1, lon1)
        b = GeoPoint(lat2, lon2)
        c = GeoPoint(lat3, lon3)
        assert haversine_km(a, c) <= haversine_km(a, b) + haversine_km(b, c) + 1e-6


class TestVectorised:
    def test_matches_scalar(self):
        origin = GeoPoint(45.0, 7.0)
        lats = np.array([41.9, 52.37, -33.87])
        lons = np.array([12.5, 4.9, 151.2])
        many = haversine_km_many(origin, lats, lons)
        for i in range(3):
            single = haversine_km(origin, GeoPoint(float(lats[i]), float(lons[i])))
            assert many[i] == pytest.approx(single, rel=1e-9)

    def test_empty_arrays(self):
        origin = GeoPoint(0.0, 0.0)
        out = haversine_km_many(origin, np.array([]), np.array([]))
        assert out.shape == (0,)


class TestDestinationPoint:
    @given(lat_strategy, lon_strategy, st.floats(min_value=0, max_value=359.9),
           st.floats(min_value=0.1, max_value=5000))
    @settings(max_examples=80)
    def test_distance_roundtrip(self, lat, lon, bearing, distance):
        origin = GeoPoint(lat, lon)
        dest = destination_point(origin, bearing, distance)
        assert haversine_km(origin, dest) == pytest.approx(distance, rel=1e-3)

    def test_zero_distance_is_identity(self):
        origin = GeoPoint(45.0, 7.0)
        dest = destination_point(origin, 123.0, 0.0)
        assert haversine_km(origin, dest) < 1e-9

    def test_due_north(self):
        origin = GeoPoint(0.0, 0.0)
        dest = destination_point(origin, 0.0, 111.0)
        assert dest.lat == pytest.approx(1.0, abs=0.01)
        assert dest.lon == pytest.approx(0.0, abs=1e-6)
