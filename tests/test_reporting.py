"""Tests for the reporting helpers: CDFs, series, tables."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reporting.series import Cdf, Series, hourly_counts
from repro.reporting.tables import TextTable, format_bytes, format_fraction


class TestCdf:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Cdf([])

    def test_basic_quantiles(self):
        cdf = Cdf(range(1, 101))
        assert cdf.min == 1
        assert cdf.max == 100
        assert cdf.median == 50
        assert cdf.quantile(0.9) == 90

    def test_fraction_below(self):
        cdf = Cdf([1.0, 2.0, 3.0, 4.0])
        assert cdf.fraction_below(0.5) == 0.0
        assert cdf.fraction_below(2.0) == 0.5
        assert cdf.fraction_below(100.0) == 1.0

    def test_quantile_bounds(self):
        cdf = Cdf([1.0])
        with pytest.raises(ValueError):
            cdf.quantile(1.5)
        assert cdf.quantile(0.0) == 1.0
        assert cdf.quantile(1.0) == 1.0

    def test_mean(self):
        assert Cdf([1.0, 2.0, 3.0]).mean() == pytest.approx(2.0)

    def test_points_decimated(self):
        cdf = Cdf(range(1000))
        pts = cdf.points(max_points=50)
        assert len(pts) <= 60
        assert pts[-1] == (999, 1.0)

    def test_render(self):
        text = Cdf([1, 2, 3]).render("x")
        assert "CDF[x]" in text and "p50=" in text

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=200))
    @settings(max_examples=80)
    def test_monotonicity_property(self, values):
        cdf = Cdf(values)
        assert cdf.fraction_below(cdf.min - 1) == 0.0
        assert cdf.fraction_below(cdf.max) == 1.0
        qs = [cdf.quantile(p / 10) for p in range(11)]
        assert qs == sorted(qs)

    @given(st.lists(st.floats(min_value=0, max_value=100, allow_nan=False),
                    min_size=1, max_size=100),
           st.floats(min_value=0, max_value=100))
    @settings(max_examples=80)
    def test_fraction_below_matches_count(self, values, x):
        cdf = Cdf(values)
        expected = sum(1 for v in values if v <= x) / len(values)
        assert cdf.fraction_below(x) == pytest.approx(expected)


class TestSeries:
    def test_append_and_lookup(self):
        s = Series(label="x")
        s.append(1.0, 10.0)
        s.append(2.0, 20.0)
        assert len(s) == 2
        assert s.xs == [1.0, 2.0] and s.ys == [10.0, 20.0]
        assert s.max_y() == 20.0

    def test_alignment_validated(self):
        with pytest.raises(ValueError):
            Series(label="x", xs=[1.0], ys=[])

    def test_empty_max_raises(self):
        with pytest.raises(ValueError):
            Series(label="x").max_y()

    def test_render(self):
        s = Series(label="demo", xs=[0.0, 1.0], ys=[2.0, 3.0])
        assert "demo" in s.render()


class TestHourly:
    def test_counts(self):
        counts = hourly_counts([0, 0, 1, 5, 99], num_hours=6)
        assert counts == [2, 1, 0, 0, 0, 1][:6]


class TestTextTable:
    def test_render_alignment(self):
        table = TextTable(["a", "bbb"], title="T")
        table.add_row(1, 22)
        table.add_row(333, 4)
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len(lines) == 5  # title, header, separator, two rows
        assert all(len(line) == len(lines[1]) for line in lines[1:])

    def test_cell_count_enforced(self):
        table = TextTable(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_needs_columns(self):
        with pytest.raises(ValueError):
            TextTable([])

    def test_formatters(self):
        assert format_bytes(2_500_000_000) == "2.50"
        assert format_fraction(0.1234) == "12.3"
        assert format_fraction(0.1234, 2) == "12.34"
