"""Tests for content placement."""

import pytest

from repro.cdn.catalog import VideoCatalog
from repro.cdn.store import ContentPlacement

DC_IDS = [f"dc-{i}" for i in range(10)]


@pytest.fixture(scope="module")
def catalog():
    return VideoCatalog(size=2000, seed=1)


@pytest.fixture
def placement(catalog):
    return ContentPlacement(
        catalog, DC_IDS, replicated_mass=0.7, regional_presence_prob=0.5
    )


def tail_video(catalog, placement, offset=0):
    featured = {v.video_id for v in catalog.featured_videos}
    rank = len(catalog) - 1 - offset
    while catalog.by_rank(rank).video_id in featured:
        rank -= 1
    return catalog.by_rank(rank)


class TestResidency:
    def test_head_everywhere(self, catalog, placement):
        head = catalog.by_rank(0)
        assert all(placement.is_resident(dc, head) for dc in DC_IDS)
        assert placement.holders(head) == DC_IDS

    def test_featured_everywhere(self, catalog, placement):
        for video in catalog.featured_videos:
            assert all(placement.is_resident(dc, video) for dc in DC_IDS)

    def test_tail_has_origin(self, catalog, placement):
        video = tail_video(catalog, placement)
        holders = placement.holders(video)
        assert 1 <= len(holders) <= len(DC_IDS)
        origins = placement.origins(video)
        assert all(o in holders for o in origins)

    def test_tail_residency_deterministic(self, catalog):
        a = ContentPlacement(catalog, DC_IDS, regional_presence_prob=0.5)
        b = ContentPlacement(catalog, DC_IDS, regional_presence_prob=0.5)
        video = catalog.by_rank(len(catalog) - 3)
        assert a.holders(video) == b.holders(video)

    def test_regional_presence_scales(self, catalog):
        sparse = ContentPlacement(catalog, DC_IDS, regional_presence_prob=0.0)
        dense = ContentPlacement(catalog, DC_IDS, regional_presence_prob=0.9)
        total_sparse = 0
        total_dense = 0
        for rank in range(len(catalog) - 200, len(catalog)):
            video = catalog.by_rank(rank)
            total_sparse += len(sparse.holders(video))
            total_dense += len(dense.holders(video))
        assert total_dense > total_sparse * 3


class TestPullThrough:
    def test_pull_through_adds_holder(self, catalog, placement):
        video = tail_video(catalog, placement)
        missing = [dc for dc in DC_IDS if not placement.is_resident(dc, video)]
        if not missing:
            pytest.skip("random tail video happens to be everywhere")
        target = missing[0]
        placement.pull_through(target, video)
        assert placement.is_resident(target, video)
        assert placement.pull_throughs == 1

    def test_pull_through_idempotent(self, catalog, placement):
        video = tail_video(catalog, placement)
        placement.pull_through(DC_IDS[0], video)
        count = placement.pull_throughs
        placement.pull_through(DC_IDS[0], video)
        assert placement.pull_throughs == count

    def test_pull_through_head_noop(self, catalog, placement):
        placement.pull_through(DC_IDS[0], catalog.by_rank(0))
        assert placement.pull_throughs == 0

    def test_unknown_dc_rejected(self, catalog, placement):
        with pytest.raises(KeyError):
            placement.pull_through("dc-nope", catalog.by_rank(0))


class TestColdRegistration:
    def test_register_cold_resets_holders(self, catalog, placement):
        video = tail_video(catalog, placement)
        placement.pull_through(DC_IDS[0], video)
        origins = placement.register_cold(video)
        assert placement.holders(video) == origins
        assert set(origins) == set(placement.origins(video))

    def test_register_cold_head_rejected(self, catalog, placement):
        with pytest.raises(ValueError):
            placement.register_cold(catalog.by_rank(0))

    def test_residency_count(self, catalog, placement):
        video = tail_video(catalog, placement)
        placement.register_cold(video)
        assert len(placement.holders(video)) == len(placement.origins(video))


class TestValidation:
    def test_needs_dcs(self, catalog):
        with pytest.raises(ValueError):
            ContentPlacement(catalog, [])

    def test_origin_count_validated(self, catalog):
        with pytest.raises(ValueError):
            ContentPlacement(catalog, DC_IDS, origin_count=0)

    def test_presence_prob_validated(self, catalog):
        with pytest.raises(ValueError):
            ContentPlacement(catalog, DC_IDS, regional_presence_prob=1.0)
