"""Tests for the delay model — the physical substrate every measurement uses."""

import random

import pytest

from repro.geo.coords import GeoPoint, haversine_km
from repro.net.latency import (
    AccessTechnology,
    LatencyModel,
    Site,
    min_of_probes,
)


def make_site(key, lat, lon, access=AccessTechnology.CAMPUS, extra=0.0, group=None):
    return Site(key=key, point=GeoPoint(lat, lon), access=access, extra_ms=extra, group=group)


TURIN = make_site("a", 45.07, 7.69)
MILAN = make_site("b", 45.46, 9.19)
TOKYO = make_site("c", 35.68, 139.65)


class TestFloor:
    def test_deterministic(self):
        model = LatencyModel(seed=1)
        assert model.min_rtt_ms(TURIN, MILAN) == model.min_rtt_ms(TURIN, MILAN)

    def test_symmetric(self):
        model = LatencyModel(seed=1)
        assert model.min_rtt_ms(TURIN, MILAN) == pytest.approx(
            model.min_rtt_ms(MILAN, TURIN)
        )

    def test_respects_physical_bound(self):
        model = LatencyModel(seed=2)
        distance = haversine_km(TURIN.point, TOKYO.point)
        assert model.min_rtt_ms(TURIN, TOKYO) >= LatencyModel.ideal_rtt_ms(distance)

    def test_grows_with_distance_scale(self):
        model = LatencyModel(seed=3)
        near = model.min_rtt_ms(TURIN, MILAN)
        far = model.min_rtt_ms(TURIN, TOKYO)
        assert far > near * 5

    def test_access_technology_matters(self):
        model = LatencyModel(seed=4)
        adsl = make_site("a", 45.07, 7.69, AccessTechnology.ADSL)
        ftth = make_site("a", 45.07, 7.69, AccessTechnology.FTTH)
        assert model.min_rtt_ms(adsl, MILAN) > model.min_rtt_ms(ftth, MILAN) + 5.0

    def test_extra_ms_adds(self):
        model = LatencyModel(seed=5)
        plain = make_site("a", 45.07, 7.69)
        egress = make_site("a", 45.07, 7.69, extra=10.0)
        assert model.min_rtt_ms(egress, MILAN) == pytest.approx(
            model.min_rtt_ms(plain, MILAN) + 10.0
        )

    def test_seed_changes_paths(self):
        a = LatencyModel(seed=1).min_rtt_ms(TURIN, TOKYO)
        b = LatencyModel(seed=2).min_rtt_ms(TURIN, TOKYO)
        assert a != b


class TestGroups:
    def test_same_group_shares_path(self):
        model = LatencyModel(seed=7)
        client1 = make_site("client:1", 45.07, 7.69, group="vp:X")
        client2 = make_site("client:2", 45.07, 7.69, group="vp:X")
        assert model.min_rtt_ms(client1, TOKYO) == model.min_rtt_ms(client2, TOKYO)

    def test_different_groups_may_differ(self):
        model = LatencyModel(seed=7)
        samples = set()
        for i in range(8):
            site = make_site(f"client:{i}", 45.07, 7.69, group=f"g{i}")
            samples.add(round(model.min_rtt_ms(site, TOKYO), 6))
        assert len(samples) > 1

    def test_detour_override(self):
        plain = LatencyModel(seed=8)
        pinned = LatencyModel(seed=8, detour_overrides={("gA", "gB"): 50.0})
        a = make_site("a", 45.0, 7.0, group="gA")
        b = make_site("b", 45.4, 9.2, group="gB")
        assert pinned.path_profile(a, b).detour_ms == 50.0
        assert pinned.min_rtt_ms(a, b) == pytest.approx(
            plain.min_rtt_ms(a, b) - plain.path_profile(a, b).detour_ms + 50.0
        )

    def test_detour_override_order_insensitive(self):
        pinned = LatencyModel(seed=8, detour_overrides={("gB", "gA"): 50.0})
        a = make_site("a", 45.0, 7.0, group="gA")
        b = make_site("b", 45.4, 9.2, group="gB")
        assert pinned.path_profile(a, b).detour_ms == 50.0

    def test_negative_detour_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel(seed=0, detour_overrides={("a", "b"): -1.0})


class TestSampling:

    def test_min_filter_converges(self):
        model = LatencyModel(seed=10)
        rng = random.Random(1)
        floor = model.min_rtt_ms(TURIN, MILAN)
        measured = model.measure_min_rtt_ms(TURIN, MILAN, rng, probes=30)
        jitter = model.path_profile(TURIN, MILAN).jitter_ms
        assert floor < measured < floor + jitter

    def test_probe_count_validated(self):
        model = LatencyModel(seed=11)
        with pytest.raises(ValueError):
            model.measure_min_rtt_ms(TURIN, MILAN, random.Random(0), probes=0)


def per_probe_min(floor, rate, rng, probes):
    """The spec: one ``expovariate`` per probe, then the minimum."""
    return min(floor + rng.expovariate(rate) for _ in range(probes))


class ScriptedRandom(random.Random):
    """A ``Random`` whose uniform draws are given (``expovariate`` reads them)."""

    def __init__(self, draws):
        super().__init__(0)
        self._draws = iter(draws)

    def random(self):
        return next(self._draws)


class TestMinOfProbes:
    """The one-log minimum equals the per-probe minimum, bit for bit."""

    def test_matches_per_probe_samples_and_rng_state(self):
        cases = random.Random(2011)
        for case in range(12_000):
            floor = cases.choice([0.0, cases.uniform(0.0, 1.0), cases.uniform(0.0, 400.0),
                                  cases.uniform(0.0, 1e6)])
            rate = 10.0 ** cases.uniform(-4.0, 4.0)
            probes = cases.randint(1, 25)
            spec_rng, rng = random.Random(case), random.Random(case)
            expected = per_probe_min(floor, rate, spec_rng, probes)
            got = min_of_probes(floor, rate, rng, probes)
            assert got.hex() == expected.hex(), (floor, rate, probes, case)
            assert rng.getstate() == spec_rng.getstate()

    @pytest.mark.parametrize("draws", [
        [0.0],
        [0.5, 0.0, 0.5],
        [0.25, 0.25, 0.25],
        [1.0 - 2.0 ** -53, 1.0 - 2.0 ** -53],
        [2.0 ** -53, 2.0 ** -52, 0.75],
        [0.999, 0.3, 0.3000000000000001, 0.2999999999999999],
    ])
    def test_extreme_and_tied_draws(self, draws):
        for floor, rate in ((0.0, 1.0), (12.5, 0.37), (1e-9, 1e9), (5000.0, 1e-6)):
            expected = per_probe_min(floor, rate, ScriptedRandom(draws), len(draws))
            got = min_of_probes(floor, rate, ScriptedRandom(draws), len(draws))
            assert got.hex() == expected.hex()

    def test_floor_reuses_a_given_distance(self):
        model = LatencyModel(seed=5)
        points = random.Random(3)
        for index in range(500):
            a = make_site(f"a{index}", points.uniform(-90, 90), points.uniform(-180, 180))
            b = make_site(f"b{index}", points.uniform(-90, 90), points.uniform(-180, 180))
            distance = haversine_km(a.point, b.point)
            assert model.floor_and_rate(a, b, distance) == model.floor_and_rate(a, b)
