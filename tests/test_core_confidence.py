"""Tests for the bootstrap confidence module."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.confidence import ConfidenceInterval, bootstrap_interval, fraction_interval


class TestBootstrap:
    def test_point_matches_full_sample(self):
        items = [1.0, 2.0, 3.0, 4.0]
        ci = bootstrap_interval(items, lambda s: sum(s) / len(s), seed=1)
        assert ci.point == pytest.approx(2.5)

    def test_interval_brackets_point(self):
        items = list(range(100))
        ci = bootstrap_interval(items, lambda s: sum(s) / len(s), seed=2)
        assert ci.low <= ci.point <= ci.high
        assert ci.width > 0

    def test_narrower_with_more_data(self):
        small = fraction_interval([True, False] * 20, seed=3)
        large = fraction_interval([True, False] * 500, seed=3)
        assert large.width < small.width

    def test_deterministic(self):
        flags = [True] * 30 + [False] * 70
        a = fraction_interval(flags, seed=4)
        b = fraction_interval(flags, seed=4)
        assert (a.low, a.high) == (b.low, b.high)

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_interval([], lambda s: 0.0)
        with pytest.raises(ValueError):
            bootstrap_interval([1], lambda s: 0.0, level=1.0)
        with pytest.raises(ValueError):
            bootstrap_interval([1], lambda s: 0.0, resamples=5)

    def test_contains_and_str(self):
        ci = ConfidenceInterval(point=0.5, low=0.4, high=0.6, level=0.95, resamples=100)
        assert ci.low <= 0.5 <= ci.high
        assert not ci.low <= 0.7 <= ci.high
        assert "[0.4000, 0.6000]" in str(ci)

    @given(st.integers(min_value=5, max_value=60), st.integers(min_value=0, max_value=99))
    @settings(max_examples=25, deadline=None)
    def test_fraction_bounds_property(self, n_true, seed):
        flags = [True] * n_true + [False] * (80 - min(n_true, 79))
        ci = fraction_interval(flags, resamples=100, seed=seed)
        assert 0.0 <= ci.low <= ci.point <= ci.high <= 1.0

    def test_on_simulated_nonpreferred_fraction(self, pipeline):
        """Error bars on the Figure 9 headline number."""
        from repro.core.nonpreferred import video_flow_preference

        name = "EU1-ADSL"
        split = video_flow_preference(
            pipeline.focus_records[name],
            pipeline.preferred_reports[name],
            pipeline.server_map,
        )
        flags = [False] * len(split[True]) + [True] * len(split[False])
        ci = fraction_interval(flags, resamples=200, seed=5)
        assert ci.low <= pipeline.nonpreferred_fraction(name) <= ci.high
        assert ci.width < 0.05  # tight at this sample size
