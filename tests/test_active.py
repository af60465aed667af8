"""Tests for the PlanetLab active experiments."""

import pytest

from repro.active.planetlab import build_planetlab_nodes
from repro.active.testvideo import TestVideoExperiment
from repro.geo.regions import Continent
from repro.sim.scenarios import PAPER_SCENARIOS, build_world


class TestNodes:
    def test_count_and_uniqueness(self):
        nodes = build_planetlab_nodes(45)
        assert len(nodes) == 45
        assert len({n.name for n in nodes}) == 45
        assert len({n.city.name for n in nodes}) == 45
        assert len({n.ip for n in nodes}) == 45

    def test_continental_diversity(self):
        nodes = build_planetlab_nodes(45)
        continents = {n.city.continent for n in nodes}
        assert Continent.NORTH_AMERICA in continents
        assert Continent.EUROPE in continents
        assert Continent.ASIA in continents

    def test_sites_distinct_groups(self):
        nodes = build_planetlab_nodes(10)
        groups = {n.site.routing_group for n in nodes}
        assert len(groups) == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            build_planetlab_nodes(0)
        with pytest.raises(ValueError):
            build_planetlab_nodes(10_000)


@pytest.fixture(scope="module")
def experiment_world():
    return build_world(PAPER_SCENARIOS["EU1-FTTH"], scale=0.002, seed=13)


@pytest.fixture(scope="module")
def report(experiment_world):
    experiment = TestVideoExperiment(experiment_world, num_nodes=40, seed=5)
    return experiment.run(num_samples=6)


class TestExperiment:
    def test_nodes_have_diverse_preferred_dcs(self, experiment_world):
        experiment = TestVideoExperiment(experiment_world, num_nodes=40, seed=5)
        preferred = {experiment.preferred_dc_of(n) for n in experiment.nodes}
        assert len(preferred) >= 15

    def test_series_shapes(self, report):
        assert len(report.series) == 40
        for series in report.series:
            assert len(series.rtts_ms) == 6
            assert len(series.times_s) == 6
            assert all(r > 0 for r in series.rtts_ms)

    def test_first_fetch_slower_for_many_nodes(self, report):
        cdf = report.ratio_cdf()
        improved = 1.0 - cdf.fraction_below(1.2)
        # Paper: "for over 40% of the PlanetLab nodes, the ratio was > 1".
        assert improved > 0.4

    def test_large_improvements_exist(self, report):
        cdf = report.ratio_cdf()
        # Paper: "in 20% of the cases the ratio was greater than 10".
        assert 1.0 - cdf.fraction_below(10.0) > 0.1

    def test_settled_rtt_stable(self, report):
        best = report.most_improved()
        assert best.rtts_ms[0] > 3.0 * best.settled_rtt_ms

    def test_later_samples_near_second(self, report):
        # After the pull-through the serving data center settles; the odd
        # late spike (overflow of the shared shard server) is allowed —
        # the paper's Figure 17 shows those too — but the *typical* tail
        # sample stays near the best one.
        for series in report.series:
            tail = sorted(series.rtts_ms[1:])
            median = tail[len(tail) // 2]
            assert median < 4.0 * tail[0] + 5.0

    def test_origin_recorded(self, report):
        assert report.origin_dcs
        assert report.video_id

    def test_sample_validation(self, experiment_world):
        experiment = TestVideoExperiment(experiment_world, num_nodes=5, seed=6)
        with pytest.raises(ValueError):
            experiment.run(num_samples=1)

    def test_ratio_requires_two_samples(self, report):
        from repro.active.testvideo import NodeRttSeries

        series = NodeRttSeries(node=report.series[0].node, times_s=[0.0], rtts_ms=[5.0])
        with pytest.raises(ValueError):
            series.first_to_second_ratio
