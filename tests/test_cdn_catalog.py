"""Tests for the video catalog."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdn.catalog import (
    DEFAULT_NUM_SHARDS,
    Resolution,
    Video,
    VideoCatalog,
    encode_video_id,
    hostname_for_video,
    shard_of,
)


@pytest.fixture(scope="module")
def catalog():
    return VideoCatalog(size=5000, seed=3, featured_share=0.1)


class TestVideoIds:
    @given(st.integers(min_value=0, max_value=10_000_000))
    @settings(max_examples=200)
    def test_id_shape(self, index):
        vid = encode_video_id(index)
        assert len(vid) == 11

    def test_ids_unique_over_large_range(self):
        ids = {encode_video_id(i) for i in range(50_000)}
        assert len(ids) == 50_000

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_video_id(-1)

    def test_shard_stable_and_in_range(self):
        vid = encode_video_id(12345)
        s1 = shard_of(vid)
        s2 = shard_of(vid)
        assert s1 == s2
        assert 0 <= s1 < DEFAULT_NUM_SHARDS

    def test_hostname_embeds_shard(self):
        vid = encode_video_id(77)
        host = hostname_for_video(vid)
        assert host.startswith(f"v{shard_of(vid)}.")


class TestResolutions:
    def test_bitrates_monotone(self):
        rates = [r.bitrate_kbps for r in
                 (Resolution.R240, Resolution.R360, Resolution.R480, Resolution.R720)]
        assert rates == sorted(rates)

    def test_labels(self):
        assert Resolution.R360.label == "360p"

    def test_size_scales_with_resolution(self, catalog):
        video = catalog.by_rank(0)
        assert video.size_bytes(Resolution.R720) > video.size_bytes(Resolution.R240)

    def test_size_formula(self):
        video = Video(video_id="x" * 11, rank=0, duration_s=100.0, weight=1.0)
        assert video.size_bytes(Resolution.R240) == int(100 * 300 * 1000 / 8)


class TestCatalog:
    def test_size_and_lookup(self, catalog):
        assert len(catalog) == 5000
        video = catalog.by_rank(17)
        assert catalog.get(video.video_id) is video

    def test_unknown_id_raises(self, catalog):
        with pytest.raises(KeyError):
            catalog.get("nonexistent!")

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            VideoCatalog(size=5)

    def test_durations_clipped(self, catalog):
        for video in catalog:
            assert 20.0 <= video.duration_s <= 2700.0

    def test_weights_decrease_with_rank(self, catalog):
        weights = [catalog.by_rank(r).weight for r in (0, 10, 100, 1000)]
        assert weights == sorted(weights, reverse=True)

    def test_sampling_respects_popularity(self, catalog):
        rng = random.Random(0)
        head_hits = sum(
            1 for _ in range(4000) if catalog.sample(rng.random()).rank < 500
        )
        tail_hits = sum(
            1 for _ in range(4000) if catalog.sample(rng.random()).rank >= 4500
        )
        assert head_hits > tail_hits * 3

    def test_head_not_dominated_by_single_video(self, catalog):
        """Zipf-Mandelbrot: no single video hogs the catalogue."""
        rng = random.Random(1)
        top = sum(1 for _ in range(5000) if catalog.sample(rng.random()).rank == 0)
        assert top / 5000 < 0.02

    def test_sample_u_validated(self, catalog):
        with pytest.raises(ValueError):
            catalog.sample(1.0)
        with pytest.raises(ValueError):
            catalog.sample(-0.1)

    def test_deterministic_across_instances(self):
        a = VideoCatalog(size=100, seed=9)
        b = VideoCatalog(size=100, seed=9)
        assert [v.video_id for v in a] == [v.video_id for v in b]
        assert [v.duration_s for v in a] == [v.duration_s for v in b]


class TestFeatured:
    def test_one_feature_per_day(self, catalog):
        featured = catalog.featured_videos
        assert len(featured) == 7  # the default num_featured_days
        assert len(set(featured)) == len(featured)

    def test_features_from_tail(self, catalog):
        for video in catalog.featured_videos:
            assert video.rank >= len(catalog) // 3

    def test_feature_absorbs_share(self, catalog):
        featured = catalog.featured_videos[0]
        rng = random.Random(2)
        in_window = sum(
            1 for _ in range(4000)
            if catalog.sample(rng.random(), t_s=100.0) is featured
        )
        assert 0.06 < in_window / 4000 < 0.15  # featured_share = 0.1

    def test_feature_silent_outside_window(self, catalog):
        featured = catalog.featured_videos[0]
        rng = random.Random(3)
        out_window = sum(
            1 for _ in range(4000)
            if catalog.sample(rng.random(), t_s=3 * 86400.0) is featured
        )
        assert out_window / 4000 < 0.01

    def test_no_time_means_no_feature_boost(self, catalog):
        featured = catalog.featured_videos[0]
        rng = random.Random(4)
        hits = sum(
            1 for _ in range(4000) if catalog.sample(rng.random()) is featured
        )
        assert hits / 4000 < 0.01


class TestCutoff:
    def test_cutoff_monotone(self, catalog):
        assert (
            catalog.popularity_cutoff_rank(0.3)
            <= catalog.popularity_cutoff_rank(0.6)
            <= catalog.popularity_cutoff_rank(0.9)
        )

    def test_cutoff_bounds(self, catalog):
        assert catalog.popularity_cutoff_rank(1.0) <= len(catalog) + 1
        assert catalog.popularity_cutoff_rank(0.01) >= 1
        with pytest.raises(ValueError):
            catalog.popularity_cutoff_rank(0.0)
