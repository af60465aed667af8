"""Tests for the workload package: diurnal profiles, clients, requests."""

import random

import pytest

from repro.cdn.catalog import Resolution, VideoCatalog
from repro.sim.scenarios import PAPER_SCENARIOS, build_world
from repro.workload.clients import build_population
from repro.workload.diurnal import DiurnalProfile
from repro.workload.interactions import InteractionModel
from repro.workload.requests import RequestGenerator, sample_resolution


class TestDiurnal:
    def test_multiplier_cycles_daily(self):
        profile = DiurnalProfile.campus()
        assert profile.multiplier(3 * 3600.0) == pytest.approx(
            profile.multiplier(3 * 3600.0 + 7 * 86400.0)
        )

    def test_day_night_contrast(self):
        for profile in (DiurnalProfile.campus(), DiurnalProfile.residential()):
            night = profile.multiplier(4 * 3600.0)  # 4 am, first day
            evening = profile.multiplier(20 * 3600.0)  # 8 pm
            assert evening > night * 4

    def test_flat_profile(self):
        flat = DiurnalProfile.flat()
        assert all(flat.multiplier(h * 3600.0) == 1.0 for h in range(48))

    def test_validation(self):
        with pytest.raises(ValueError):
            DiurnalProfile(hourly_shape=(1.0,) * 23, weekly_shape=(1.0,) * 7)
        with pytest.raises(ValueError):
            DiurnalProfile(hourly_shape=(1.0,) * 24, weekly_shape=(1.0,) * 6)
        with pytest.raises(ValueError):
            DiurnalProfile(hourly_shape=(-1.0,) + (1.0,) * 23, weekly_shape=(1.0,) * 7)
        with pytest.raises(ValueError):
            DiurnalProfile.flat().multiplier(-1.0)


@pytest.fixture(scope="module")
def vantage():
    # Borrow a built world's vantage point (has subnets + resolvers).
    return build_world(PAPER_SCENARIOS["EU1-Campus"], scale=0.01, seed=2).vantage


class TestClients:
    def test_population_size(self, vantage):
        pop = build_population(vantage, 100, seed=1)
        assert len(pop) == 100

    def test_clients_in_their_subnets(self, vantage):
        pop = build_population(vantage, 100, seed=1)
        for client in pop:
            subnet = vantage.subnet_of(client.ip)
            assert subnet is not None
            assert subnet.name == client.subnet_name

    def test_subnet_shares_respected(self, vantage):
        pop = build_population(vantage, 200, seed=2)
        share_1 = sum(1 for c in pop if c.subnet_name == "Net-1") / 200
        assert 0.4 < share_1 < 0.7  # spec says 0.55

    def test_unique_ips(self, vantage):
        pop = build_population(vantage, 300, seed=3)
        ips = [c.ip for c in pop]
        assert len(set(ips)) == len(ips)

    def test_heavy_tail_activity(self, vantage):
        pop = build_population(vantage, 500, seed=4)
        activities = sorted((c.activity for c in pop), reverse=True)
        top_decile = sum(activities[:50])
        assert top_decile > sum(activities) * 0.25

    def test_sampling_prefers_active(self, vantage):
        pop = build_population(vantage, 50, seed=5)
        heaviest = max(pop, key=lambda c: c.activity)
        rng = random.Random(0)
        hits = sum(1 for _ in range(2000) if pop.sample(rng.random()).ip == heaviest.ip)
        assert hits / 2000 > 1.5 / 50

    def test_validation(self, vantage):
        with pytest.raises(ValueError):
            build_population(vantage, 0)
        pop = build_population(vantage, 10, seed=6)
        with pytest.raises(ValueError):
            pop.sample(1.0)


class TestInteractions:
    def test_disabled(self):
        model = InteractionModel(probability=0.0)
        rng = random.Random(0)
        assert all(not model.draw_gaps(rng) for _ in range(100))

    def test_gap_bounds(self):
        model = InteractionModel(probability=1.0, min_gap_s=10.0, max_gap_s=20.0)
        rng = random.Random(1)
        for _ in range(100):
            for gap in model.draw_gaps(rng):
                assert 10.0 <= gap <= 20.0

    def test_resolution_switch(self):
        model = InteractionModel(resolution_switch_probability=1.0)
        rng = random.Random(2)
        assert model.next_resolution(Resolution.R360, rng) is not Resolution.R360

    def test_no_switch(self):
        model = InteractionModel(resolution_switch_probability=0.0)
        rng = random.Random(3)
        assert model.next_resolution(Resolution.R360, rng) is Resolution.R360

    def test_validation(self):
        with pytest.raises(ValueError):
            InteractionModel(probability=1.5)
        with pytest.raises(ValueError):
            InteractionModel(min_gap_s=0.0)
        with pytest.raises(ValueError):
            InteractionModel(min_gap_s=10.0, max_gap_s=5.0)


class TestRequestGenerator:
    @pytest.fixture(scope="class")
    def generator(self, vantage):
        pop = build_population(vantage, 100, seed=7)
        catalog = VideoCatalog(size=800, seed=7)
        return RequestGenerator(
            population=pop,
            catalog=catalog,
            profile=DiurnalProfile.campus(),
            requests_per_day=600.0,
            seed=7,
        )

    def test_requests_sorted(self, generator):
        requests = generator.generate(2 * 86400.0)
        times = [r.t_s for r in requests]
        assert times == sorted(times)

    def test_volume_near_target(self, generator):
        requests = generator.generate(7 * 86400.0)
        primaries = [r for r in requests if not r.is_interaction]
        assert 0.7 * 4200 < len(primaries) < 1.3 * 4200

    def test_interactions_share_client_and_video(self, generator):
        requests = generator.generate(86400.0)
        primaries = {
            (r.client.ip, r.video.video_id) for r in requests if not r.is_interaction
        }
        for r in requests:
            if r.is_interaction:
                assert (r.client.ip, r.video.video_id) in primaries

    def test_deterministic(self, vantage):
        pop = build_population(vantage, 50, seed=8)
        catalog = VideoCatalog(size=500, seed=8)

        def gen():
            return RequestGenerator(
                pop, catalog, DiurnalProfile.flat(), 200.0, seed=9
            ).generate(86400.0)

        a, b = gen(), gen()
        assert [(r.t_s, r.client.ip, r.video.video_id) for r in a] == [
            (r.t_s, r.client.ip, r.video.video_id) for r in b
        ]

    def test_diurnal_shape_visible(self, vantage):
        pop = build_population(vantage, 50, seed=10)
        catalog = VideoCatalog(size=500, seed=10)
        gen = RequestGenerator(
            pop, catalog, DiurnalProfile.residential(), 5000.0, seed=11
        )
        requests = gen.generate(86400.0)
        night = sum(1 for r in requests if 2 <= r.t_s / 3600.0 < 6)
        evening = sum(1 for r in requests if 18 <= r.t_s / 3600.0 < 22)
        assert evening > night * 3

    def test_validation(self, vantage):
        pop = build_population(vantage, 10, seed=12)
        catalog = VideoCatalog(size=100, seed=12)
        with pytest.raises(ValueError):
            RequestGenerator(pop, catalog, DiurnalProfile.flat(), 0.0)
        gen = RequestGenerator(pop, catalog, DiurnalProfile.flat(), 10.0)
        with pytest.raises(ValueError):
            gen.generate(0.0)


class TestResolutionMix:
    def test_360_dominates(self):
        rng = random.Random(0)
        picks = [sample_resolution(rng) for _ in range(4000)]
        share_360 = picks.count(Resolution.R360) / len(picks)
        assert 0.45 < share_360 < 0.65
        assert picks.count(Resolution.R720) < picks.count(Resolution.R240)
