"""Tests for what-if parameter sweeps: one-axis grids over a spec field."""

import pytest

from repro.spec.grid import GridAxis, GridSpec
from repro.spec.runner import run_grid


def sweep(scenario, parameter, values, scale, seed=7):
    """The metric rows of a one-axis grid over ``parameter``, in value order."""
    grid = GridSpec(base=scenario, axes=(GridAxis(parameter, values),))
    return run_grid(grid, scale=scale, seed=seed).rows


class TestSweepMechanics:
    def test_unknown_scenario(self):
        with pytest.raises(KeyError):
            sweep("Mars", "featured_share", [0.1], scale=0.004)

    def test_unknown_field(self):
        with pytest.raises(ValueError):
            sweep("EU1-FTTH", "warp_factor", [0.1], scale=0.004)

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            sweep("EU1-FTTH", "featured_share", [], scale=0.004)


def direction(rows, metric):
    """+1 if the metric only rises along the grid, -1 if it only falls, else 0."""
    ys = [getattr(row, metric) for row in rows]
    rising = all(b >= a for a, b in zip(ys, ys[1:]))
    falling = all(b <= a for a, b in zip(ys, ys[1:]))
    return (rising and not falling) - (falling and not rising)


class TestDoseResponses:
    def test_spill_lowers_preferred_share(self):
        rows = sweep("EU1-FTTH", "spill_probability", [0.0, 0.05, 0.15], scale=0.005)
        assert direction(rows, "preferred_share") == -1

    def test_regional_presence_lowers_misses(self):
        rows = sweep(
            "EU1-FTTH", "regional_presence_prob", [0.1, 0.5, 0.9], scale=0.005
        )
        assert direction(rows, "miss_rate") == -1

    def test_eu2_cap_raises_local_share(self):
        rows = sweep(
            "EU2", "internal_dc_cap_of_mean", [0.2, 0.55, 1.2], scale=0.006
        )
        # More DNS budget for the in-ISP data center → more served locally.
        assert direction(rows, "preferred_share") == 1
        low = rows[0].preferred_share
        high = rows[-1].preferred_share
        assert high > low + 0.2
