"""CBG and its probes must match the pair-by-pair spec in ``tests/oracle/cbg``.

Every comparison is exact (``==`` on floats, ``np.array_equal`` on
arrays): the runtime's floor matrix, precomputed probe floors and cached
spiral reorganise the same arithmetic, and a constraint disc is skipped
only when it provably holds every region sample, so nothing is
approximated.
"""

import math
import random

import numpy as np
import pytest

from repro import obs
from repro.faults import report as degradation
from repro.faults.plan import FaultPlan, clear_current_plan, set_current_plan
from repro.geo.cities import default_atlas
from repro.geo.coords import EARTH_RADIUS_KM, GeoPoint, destination_point, haversine_km
from repro.geo.landmarks import generate_landmarks
from repro.geoloc.cbg import _REGION_SAMPLES, CbgGeolocator, _sunflower, landmark_site
from repro.geoloc.probing import RttProber
from repro.net.latency import AccessTechnology, LatencyModel, Site
from repro.sim.seeding import derive_seed

from tests.oracle import cbg as oracle

BUDGETS = [4, 10, 60, 120, 215]
PROBES = 6
WORLD_SEEDS = [1, 7, 42]


def _landmarks(budget):
    full = generate_landmarks(seed=42)
    return full if budget >= len(full) else full.subsample(budget, seed=1)


def _targets():
    atlas = default_atlas()
    cities = sorted(atlas, key=lambda city: city.name)[::17][:8]
    return [
        Site(f"srv:{city.name}", city.point, AccessTechnology.DATACENTER,
             group=f"dc-{city.name}")
        for city in cities
    ]


@pytest.fixture(scope="module", params=BUDGETS, ids=[f"lm{b}" for b in BUDGETS])
def calibrated(request):
    """``(runtime, spec)`` geolocators calibrated on the same landmarks."""
    landmarks = _landmarks(request.param)
    latency = LatencyModel(seed=123)
    runtime = CbgGeolocator(landmarks, RttProber(latency, probes=PROBES, seed=99))
    spec = oracle.SpecCbgGeolocator(
        landmarks, oracle.SpecProber(latency, probes=PROBES, seed=99)
    )
    return runtime, spec


def _assert_same_prober_state(runtime, spec):
    assert runtime._prober.measurements == spec._prober.measurements
    assert runtime._prober._rng.getstate() == spec._prober._rng.getstate()


def test_calibration_matches_spec(calibrated):
    runtime, spec = calibrated
    for lm in runtime.landmarks:
        assert runtime.bestline(lm.name) == spec.bestline(lm.name)
    count = len(runtime.landmarks)
    assert runtime._prober.measurements == count * (count - 1)
    _assert_same_prober_state(runtime, spec)


@pytest.mark.parametrize("probe_loss", [None, 0.3], ids=["no-plan", "probe-loss"])
def test_geolocation_matches_spec(calibrated, probe_loss):
    runtime, spec = calibrated
    obs.new_run("cbg-oracle")
    if probe_loss is not None:
        set_current_plan(FaultPlan(seed=5, probe_loss=probe_loss))
    try:
        for target in _targets():
            expected = spec.geolocate_target(target)
            got = runtime.geolocate_target(target)
            assert got == expected
        if probe_loss is not None and len(runtime.landmarks) > 4:
            assert degradation.collect().stages["geoloc/cbg"]["probes_lost"] > 0
    finally:
        clear_current_plan()
        obs.set_current_run(None)
    _assert_same_prober_state(runtime, spec)


def test_empty_region_falls_back_like_spec(calibrated):
    # A tiny RTT from every landmark puts each target within MIN_RADIUS_KM
    # of all of them: the intersection stays empty through every
    # relaxation round, so both must fall back to the tightest landmark.
    runtime, spec = calibrated
    rtts = {lm.name: 0.1 for lm in runtime.landmarks}
    got = runtime.geolocate(rtts)
    assert got == spec.geolocate(rtts)
    if len(rtts) >= 10:
        assert not got.feasible


def test_min_rtt_measurement_matches_per_probe_samples():
    latency = LatencyModel(seed=7)
    sites = [landmark_site(lm) for lm in _landmarks(10)] + _targets()
    runtime_rng, spec_rng = random.Random(3), random.Random(3)
    for a in sites:
        for b in sites:
            got = latency.measure_min_rtt_ms(a, b, runtime_rng, probes=PROBES)
            expected = min(
                oracle.sample_rtt_ms(latency, a, b, spec_rng) for _ in range(PROBES)
            )
            assert got == expected
    assert runtime_rng.getstate() == spec_rng.getstate()


@pytest.mark.parametrize("seed", WORLD_SEEDS)
def test_landmark_distances_and_floors_are_symmetric(seed):
    # The calibration fills the floor matrix's lower triangle from the
    # upper one; that is exact only because both are symmetric to the bit.
    landmarks = list(generate_landmarks(seed=derive_seed(seed, "landmarks")))
    assert len(landmarks) == 215
    latency = LatencyModel(seed=derive_seed(seed, "latency"))
    sites = [landmark_site(lm) for lm in landmarks]
    for i, a in enumerate(sites):
        for b in sites[i + 1:]:
            assert haversine_km(a.point, b.point) == haversine_km(b.point, a.point)
            assert latency.min_rtt_ms(a, b) == latency.min_rtt_ms(b, a)
            assert latency.floor_and_rate(a, b) == latency.floor_and_rate(b, a)


def _anchors():
    return [
        (GeoPoint(45.07, 7.69), 30.0),
        (GeoPoint(40.7, -74.0), 850.0),
        (GeoPoint(-33.9, 151.2), 4000.0),
        (GeoPoint(89.5, 10.0), 600.0),
        (GeoPoint(-89.9, -170.0), 1500.0),
        (GeoPoint(0.0, 179.9), 2500.0),
        (GeoPoint(12.3, -179.95), 12000.0),
    ]


@pytest.mark.parametrize("count", [1, 7, _REGION_SAMPLES])
def test_sunflower_matches_destination_points(count):
    for center, radius in _anchors():
        lats, lons = _sunflower(center, radius, count)
        spec_lats, spec_lons = oracle.sunflower(center, radius, count)
        assert np.array_equal(lats, spec_lats)
        assert np.array_equal(lons, spec_lons)


@pytest.mark.parametrize("anchor, radius", _anchors())
def test_region_test_matches_spec_around_the_containment_slack(anchor, radius):
    # A second disc at distance d from the anchor with radius
    # d + radius + slack holds the whole sampled disc exactly when slack
    # exceeds the runtime's skip threshold; on either side of it, and for
    # discs that cut or miss the sampled disc, the region must be the
    # spec's to the bit.
    runtime = CbgGeolocator(_landmarks(4), RttProber(LatencyModel(seed=1), probes=1))
    spec = oracle.SpecCbgGeolocator(
        _landmarks(4), oracle.SpecProber(LatencyModel(seed=1), probes=1)
    )
    outcomes = set()
    for distance in (0.0, 0.5 * radius, 3.0 * radius):
        for bearing in (0.0, 137.0):
            other = destination_point(anchor, bearing, distance)
            for slack in (-2.0 * radius, -0.5, 0.0, 0.999, 1.0, 1.001, 50.0):
                other_radius = max(radius, distance + radius + slack)
                centers = [anchor, other]
                radii = np.array([radius, other_radius])
                got = runtime._intersect(centers, radii)
                assert got == spec._intersect(centers, radii)
                outcomes.add(got is None)
    # Discs 3 radii away miss the sampled disc unless they wrap the globe.
    assert outcomes == ({True, False} if 4.0 * radius < math.pi * EARTH_RADIUS_KM else {False})


def test_calibration_is_one_traced_span():
    run = obs.new_run("cbg-span")
    try:
        CbgGeolocator(_landmarks(10), RttProber(LatencyModel(seed=1), probes=2))
        spans = [r for r in run.tracer.records if r.name == "geoloc/cbg/calibrate"]
    finally:
        obs.set_current_run(None)
    assert len(spans) == 1
    assert spans[0].attrs == {"layer": "measure.cbg.calibrate", "landmarks": 10}
