"""Robustness and failure-injection tests.

A measurement methodology is only useful if it degrades gracefully when
the measurement substrate misbehaves: monitors drop flows, landmarks go
dark, probes get noisy.  These tests inject those failures and check the
analyses bend rather than break.
"""

import random

import pytest

from repro.core.sessions import build_sessions, flows_per_session_histogram
from repro.geo.cities import default_atlas
from repro.geo.coords import haversine_km
from repro.geo.landmarks import generate_landmarks
from repro.geoloc.cbg import CbgGeolocator
from repro.geoloc.probing import RttProber
from repro.net.latency import AccessTechnology, LatencyModel, Site
from repro.sim.engine import run_requests
from repro.sim.scenarios import PAPER_SCENARIOS, build_world


class TestMonitorLoss:
    """Tstat misses flows; the session analysis must survive it."""

    @pytest.fixture(scope="class")
    def lossy_world(self):
        return build_world(PAPER_SCENARIOS["EU1-ADSL"], scale=0.004, seed=21)

    def test_session_stats_stable_under_loss(self, lossy_world):
        clean = run_requests(lossy_world, miss_probability=0.0)
        lossy = run_requests(lossy_world, miss_probability=0.05)
        h_clean = flows_per_session_histogram(
            build_sessions(clean.dataset.records, 1.0)
        )
        h_lossy = flows_per_session_histogram(
            build_sessions(lossy.dataset.records, 1.0)
        )
        # 5% flow loss moves the single-flow share by a few points at most.
        assert abs(h_clean["1"] - h_lossy["1"]) < 0.06

    def test_loss_rate_observed(self, lossy_world):
        lossy = run_requests(lossy_world, miss_probability=0.3)
        clean = run_requests(lossy_world, miss_probability=0.0)
        assert len(lossy.dataset) < 0.8 * len(clean.dataset)


class TestCbgDegradation:
    """CBG under landmark dropout and extra probe noise."""

    @pytest.fixture(scope="class")
    def full_cbg(self):
        landmarks = generate_landmarks(seed=42).subsample(80, seed=1)
        latency = LatencyModel(seed=123)
        return landmarks, latency, CbgGeolocator(
            landmarks, RttProber(latency, probes=5, seed=9)
        )

    def _target(self, city):
        point = default_atlas().get(city).point
        return Site(key=f"t:{city}", point=point,
                    access=AccessTechnology.DATACENTER, group=f"t:{city}")

    def test_partial_measurements_still_locate(self, full_cbg):
        landmarks, latency, cbg = full_cbg
        target = self._target("Amsterdam")
        rtts = cbg.measure_target(target)
        # Two thirds of the landmarks go dark.
        rng = random.Random(0)
        kept = dict(rng.sample(sorted(rtts.items()), len(rtts) // 3))
        result = cbg.geolocate(kept)
        err = haversine_km(result.estimate, target.point)
        assert err < 600.0  # degraded, not broken

    def test_dropout_grows_error_but_not_unbounded(self, full_cbg):
        landmarks, latency, cbg = full_cbg
        target = self._target("Chicago")
        rtts = cbg.measure_target(target)
        full_err = haversine_km(cbg.geolocate(rtts).estimate, target.point)
        rng = random.Random(1)
        kept = dict(rng.sample(sorted(rtts.items()), 6))
        few_err = haversine_km(cbg.geolocate(kept).estimate, target.point)
        assert few_err < 2500.0
        assert full_err < 400.0

    def test_inflated_rtts_keep_region_valid(self, full_cbg):
        """Extra queueing only widens constraints: the target stays inside."""
        landmarks, latency, cbg = full_cbg
        target = self._target("Milan")
        rtts = {name: rtt + 8.0 for name, rtt in cbg.measure_target(target).items()}
        result = cbg.geolocate(rtts)
        err = haversine_km(result.estimate, target.point)
        assert err < result.confidence_radius_km + 800.0


class TestSeedRobustness:
    """Headline shapes are properties of the mechanisms, not of one seed."""

    @pytest.mark.parametrize("seed", [11, 23, 37])
    def test_preferred_share_across_seeds(self, seed):
        world = build_world(PAPER_SCENARIOS["EU1-FTTH"], scale=0.004, seed=seed)
        result = run_requests(world)
        preferred = world.system.policy.ranking_for("EU1-FTTH/Net-1")[0]
        share = result.served_dc_counts[preferred] / result.requests
        assert share > 0.8, (seed, share)

    @pytest.mark.parametrize("seed", [11, 23])
    def test_eu2_split_across_seeds(self, seed):
        world = build_world(PAPER_SCENARIOS["EU2"], scale=0.006, seed=seed)
        result = run_requests(world)
        internal = world.internal_dc_id
        share = result.served_dc_counts.get(internal, 0) / result.requests
        assert 0.25 < share < 0.65, (seed, share)


class TestEmptyAndEdgeInputs:
    def test_sessions_on_empty_records(self):
        assert build_sessions([], gap_s=1.0) == []

    def test_pipeline_rejects_empty(self):
        from repro.core.pipeline import StudyPipeline

        with pytest.raises(ValueError):
            StudyPipeline({})

    def test_one_hour_trace(self):
        world = build_world(
            PAPER_SCENARIOS["EU1-FTTH"], scale=0.05, seed=5, duration_s=3600.0
        )
        result = run_requests(world)
        assert result.dataset.num_hours == 1
        assert all(r.hour == 0 for r in result.dataset.records)

    def test_two_week_trace(self):
        """Longer windows: weekly periodicity repeats, features keep coming."""
        world = build_world(
            PAPER_SCENARIOS["EU1-FTTH"], scale=0.01, seed=5,
            duration_s=14 * 86400.0,
        )
        result = run_requests(world)
        dataset = result.dataset
        assert dataset.num_hours == 14 * 24
        # Both weeks carry traffic.
        week1 = sum(1 for r in dataset.records if r.hour < 168)
        week2 = sum(1 for r in dataset.records if r.hour >= 168)
        assert week1 > 0 and week2 > 0
        assert 0.5 < week1 / week2 < 2.0
        # The catalog features a video on every one of the 14 days.
        catalog = world.system.catalog
        assert len(catalog.featured_videos) >= 14
