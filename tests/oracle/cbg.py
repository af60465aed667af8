"""Spec of :mod:`repro.geoloc.cbg` and its probes: one pair, one point at a time.

The runtime geolocator builds the landmark floor matrix once, draws each
measurement's probes from a precomputed ``(floor, rate)``, lays the
sunflower grid from cached spiral terms and skips the constraint discs
that provably hold the whole grid.  This module restates each of those steps the way the
algorithm reads: every probe recomputes its path's floor, every ordered
landmark pair is measured on its own, every grid point goes through
:func:`~repro.geo.coords.destination_point`, and every constraint centre
gets its own :func:`~repro.geo.coords.haversine_km_many`.  The runtime
must reproduce it exactly — same bestlines, same results, same RNG state.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.geo.coords import (
    GeoPoint,
    destination_point,
    haversine_km,
    haversine_km_many,
)
from repro.geoloc.cbg import (
    _REGION_SAMPLES,
    CbgGeolocator,
    _spherical_centroid,
    fit_bestline,
    landmark_site,
)
from repro.geoloc.probing import RttProber
from repro.net.latency import C_FIBER_KM_PER_MS, PROCESSING_MS, LatencyModel, Site


def sample_rtt_ms(latency: LatencyModel, a: Site, b: Site, rng: random.Random) -> float:
    """Spec of one probe's RTT: the floor, recomputed, plus exponential noise."""
    profile = latency.path_profile(a, b)
    distance = haversine_km(a.point, b.point)
    propagation = 2.0 * distance / C_FIBER_KM_PER_MS * profile.inflation
    access = a.access.last_mile_ms + b.access.last_mile_ms + a.extra_ms + b.extra_ms
    floor = propagation + profile.detour_ms + access + PROCESSING_MS
    return floor + rng.expovariate(1.0 / latency.path_profile(a, b).jitter_ms)


class SpecProber(RttProber):
    """Spec of :meth:`RttProber.measure_ms`: the minimum of per-probe samples."""

    def measure_ms(self, origin: Site, target: Site) -> float:
        self.measurements += 1
        return min(
            sample_rtt_ms(self.latency, origin, target, self._rng)
            for _ in range(self._probes)
        )


class SpecCbgGeolocator(CbgGeolocator):
    """Spec of :class:`CbgGeolocator`: calibration and regions pair by pair.

    Construct it with a :class:`SpecProber`; target measurement and the
    relaxation loop are inherited, and probe through that prober.
    """

    def _calibrate(self) -> None:
        sites = {lm.name: landmark_site(lm) for lm in self._landmarks}
        points = {lm.name: lm.point for lm in self._landmarks}
        for lm in self._landmarks:
            distances: List[float] = []
            rtts: List[float] = []
            for other in self._landmarks:
                if other.name == lm.name:
                    continue
                distances.append(haversine_km(points[lm.name], points[other.name]))
                rtts.append(self._prober.measure_ms(sites[lm.name], sites[other.name]))
            self._bestlines[lm.name] = fit_bestline(distances, rtts)

    def _intersect(
        self, centers: Sequence[GeoPoint], radii: np.ndarray
    ) -> Optional[Tuple[GeoPoint, float]]:
        tightest = int(np.argmin(radii))
        anchor = centers[tightest]
        anchor_radius = float(radii[tightest])
        lats, lons = sunflower(anchor, anchor_radius, _REGION_SAMPLES)

        mask = np.ones(lats.shape[0], dtype=bool)
        for center, radius in zip(centers, radii):
            if not mask.any():
                return None
            distances = haversine_km_many(center, lats, lons)
            mask &= distances <= radius
        if not mask.any():
            return None
        feasible_lats = lats[mask]
        feasible_lons = lons[mask]
        centroid = _spherical_centroid(feasible_lats, feasible_lons)
        area_fraction = feasible_lats.shape[0] / lats.shape[0]
        confidence = anchor_radius * math.sqrt(area_fraction)
        return centroid, confidence


def sunflower(center: GeoPoint, radius_km: float, count: int) -> Tuple[np.ndarray, np.ndarray]:
    """Spec of :func:`repro.geoloc.cbg._sunflower`: one ``destination_point`` per sample."""
    golden = math.pi * (3.0 - math.sqrt(5.0))
    lats = np.empty(count)
    lons = np.empty(count)
    for i in range(count):
        r = radius_km * math.sqrt((i + 0.5) / count)
        theta = math.degrees(golden * i) % 360.0
        p = destination_point(center, theta, r)
        lats[i] = p.lat
        lons[i] = p.lon
    return lats, lons
