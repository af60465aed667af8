"""Geographic coordinates and great-circle math.

All distances are in kilometres and all angles in degrees unless noted.
The functions here are deliberately dependency-light; :func:`haversine_km_many`
is the only numpy-vectorised entry point and is what the CBG geolocator uses
on its hot path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Mean Earth radius used throughout the project (IUGG mean radius).
EARTH_RADIUS_KM = 6371.0


@dataclass(frozen=True, order=True)
class GeoPoint:
    """A point on the Earth's surface.

    Attributes:
        lat: Latitude in degrees, in ``[-90, 90]``.
        lon: Longitude in degrees, in ``[-180, 180]``.
    """

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude out of range: {self.lat!r}")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude out of range: {self.lon!r}")

    def distance_km(self, other: "GeoPoint") -> float:
        """Great-circle distance to ``other`` in kilometres."""
        return haversine_km(self, other)

    def __str__(self) -> str:
        ns = "N" if self.lat >= 0 else "S"
        ew = "E" if self.lon >= 0 else "W"
        return f"{abs(self.lat):.3f}{ns},{abs(self.lon):.3f}{ew}"


def haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points, in kilometres."""
    lat1 = math.radians(a.lat)
    lat2 = math.radians(b.lat)
    dlat = lat2 - lat1
    dlon = math.radians(b.lon - a.lon)
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def haversine_km_many(origin: GeoPoint, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
    """Great-circle distance from ``origin`` to many points at once.

    Args:
        origin: The common origin point.
        lats: Array of latitudes in degrees.
        lons: Array of longitudes in degrees (same shape as ``lats``).

    Returns:
        Array of distances in kilometres, same shape as the inputs.
    """
    lat1 = math.radians(origin.lat)
    lat2 = np.radians(lats)
    dlat = lat2 - lat1
    dlon = np.radians(lons - origin.lon)
    h = np.sin(dlat / 2.0) ** 2 + math.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(h)))


def destination_point(origin: GeoPoint, bearing_deg: float, distance_km: float) -> GeoPoint:
    """The point ``distance_km`` away from ``origin`` along ``bearing_deg``.

    Used to scatter synthetic landmarks and servers around anchor cities, and
    by the CBG region sampler to lay candidate grids.
    """
    delta = distance_km / EARTH_RADIUS_KM
    theta = math.radians(bearing_deg)
    lat1 = math.radians(origin.lat)
    lon1 = math.radians(origin.lon)
    lat2 = math.asin(
        math.sin(lat1) * math.cos(delta) + math.cos(lat1) * math.sin(delta) * math.cos(theta)
    )
    lon2 = lon1 + math.atan2(
        math.sin(theta) * math.sin(delta) * math.cos(lat1),
        math.cos(delta) - math.sin(lat1) * math.sin(lat2),
    )
    lon2 = (lon2 + 3.0 * math.pi) % (2.0 * math.pi) - math.pi
    return GeoPoint(math.degrees(lat2), math.degrees(lon2))
