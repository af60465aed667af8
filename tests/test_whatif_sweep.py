"""Tests for what-if parameter sweeps."""

import pytest

from repro.whatif.sweep import sweep_parameter


class TestSweepMechanics:
    def test_unknown_scenario(self):
        with pytest.raises(KeyError):
            sweep_parameter("Mars", "featured_share", [0.1])

    def test_unknown_field(self):
        with pytest.raises(ValueError):
            sweep_parameter("EU1-FTTH", "warp_factor", [0.1])

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            sweep_parameter("EU1-FTTH", "featured_share", [])

    def test_series_alignment(self):
        sweep = sweep_parameter(
            "EU1-FTTH", "spill_probability", [0.0, 0.08], scale=0.004, seed=7
        )
        series = sweep.series("preferred_share")
        assert series.xs == [0.0, 0.08]
        assert len(series.ys) == 2

    def test_unknown_metric_raises(self):
        sweep = sweep_parameter(
            "EU1-FTTH", "spill_probability", [0.0], scale=0.004, seed=7
        )
        with pytest.raises(AttributeError):
            sweep.series("nonexistent_metric")


def direction(sweep, metric):
    """+1 if the metric only rises along the grid, -1 if it only falls, else 0."""
    ys = sweep.series(metric).ys
    rising = all(b >= a for a, b in zip(ys, ys[1:]))
    falling = all(b <= a for a, b in zip(ys, ys[1:]))
    return (rising and not falling) - (falling and not rising)


class TestDoseResponses:
    def test_spill_lowers_preferred_share(self):
        sweep = sweep_parameter(
            "EU1-FTTH", "spill_probability", [0.0, 0.05, 0.15], scale=0.005, seed=7
        )
        assert direction(sweep, "preferred_share") == -1

    def test_regional_presence_lowers_misses(self):
        sweep = sweep_parameter(
            "EU1-FTTH", "regional_presence_prob", [0.1, 0.5, 0.9],
            scale=0.005, seed=7,
        )
        assert direction(sweep, "miss_rate") == -1

    def test_eu2_cap_raises_local_share(self):
        sweep = sweep_parameter(
            "EU2", "internal_dc_cap_of_mean", [0.2, 0.55, 1.2],
            scale=0.006, seed=7,
        )
        # More DNS budget for the in-ISP data center → more served locally.
        assert direction(sweep, "preferred_share") == 1
        low = sweep.metrics[0].preferred_share
        high = sweep.metrics[-1].preferred_share
        assert high > low + 0.2
