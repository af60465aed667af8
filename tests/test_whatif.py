"""Tests for the what-if framework."""

import dataclasses

import pytest

from repro.sim.driver import run_spec
from repro.sim.scenarios import PAPER_SCENARIOS
from repro.whatif.compare import ComparisonReport, compare_variants, render_comparison
from repro.whatif.metrics import extract_metrics
from repro.whatif.variants import (
    baseline_variant,
    standard_variants,
    variant_by_name,
)

SCALE = 0.006
SEED = 7


class TestVariants:
    def test_standard_library_names_unique(self):
        names = [v.name for v in standard_variants()]
        assert len(set(names)) == len(names)
        assert "baseline" in names
        assert "old-policy" in names

    def test_lookup(self):
        assert variant_by_name("flash-crowd").name == "flash-crowd"
        with pytest.raises(KeyError):
            variant_by_name("nope")

    def test_baseline_is_identity(self):
        spec = PAPER_SCENARIOS["EU1-ADSL"]
        assert baseline_variant().apply(spec) == spec

    def test_transforms_change_only_their_field(self):
        spec = PAPER_SCENARIOS["EU1-ADSL"]
        flash = variant_by_name("flash-crowd").apply(spec)
        assert flash.featured_share == 0.25
        assert dataclasses.replace(flash, featured_share=spec.featured_share) == spec

    def test_old_policy_is_policy_only(self):
        variant = variant_by_name("old-policy")
        spec = PAPER_SCENARIOS["EU1-ADSL"]
        assert variant.apply(spec) == spec
        assert variant.policy_kind == "proportional"


class TestMetrics:
    @pytest.fixture(scope="class")
    def metrics(self):
        result = run_spec(PAPER_SCENARIOS["EU1-FTTH"], scale=SCALE, seed=SEED)
        return extract_metrics(result)

    def test_basic_sanity(self, metrics):
        assert metrics.requests > 100
        assert metrics.flows >= metrics.requests
        assert 0.8 < metrics.preferred_share <= 1.0
        assert metrics.top_dc_share >= metrics.preferred_share
        assert metrics.distinct_dcs >= 2

    def test_rates_consistent(self, metrics):
        assert 0.0 <= metrics.miss_rate <= metrics.redirect_rate
        assert 0.0 <= metrics.overload_rate <= metrics.redirect_rate

    def test_user_performance_positive(self, metrics):
        assert metrics.median_startup_s > 0.0
        assert metrics.p90_startup_s >= metrics.median_startup_s
        assert metrics.median_serving_rtt_ms > 1.0

    def test_label_override(self):
        result = run_spec(PAPER_SCENARIOS["EU1-FTTH"], scale=SCALE, seed=SEED)
        assert extract_metrics(result, label="x").label == "x"


class TestComparison:
    @pytest.fixture(scope="class")
    def report(self):
        variants = [variant_by_name("old-policy"), variant_by_name("sparse-replication")]
        return compare_variants("EU1-FTTH", variants, scale=SCALE, seed=SEED)

    def test_baseline_prepended(self, report):
        assert report.rows[0].label == "baseline"
        assert len(report.rows) == 3
        assert report.baseline.label == "baseline"

    def test_old_policy_destroys_locality(self, report):
        old = report.row("old-policy")
        assert old.preferred_share < 0.3
        assert old.median_serving_rtt_ms > 3.0 * report.baseline.median_serving_rtt_ms
        assert old.distinct_dcs > report.baseline.distinct_dcs

    def test_sparse_replication_raises_misses(self, report):
        sparse = report.row("sparse-replication")
        assert sparse.miss_rate > 1.5 * report.baseline.miss_rate

    def test_delta_helper(self, report):
        delta = report.delta("old-policy", "median_serving_rtt_ms")
        assert delta > 0

    def test_row_lookup_errors(self, report):
        with pytest.raises(KeyError):
            report.row("nope")
        empty = ComparisonReport(scenario_name="x")
        with pytest.raises(LookupError):
            empty.baseline

    def test_render(self, report):
        text = render_comparison(report)
        assert "WHAT-IF COMPARISON" in text
        assert "old-policy" in text

    def test_unknown_scenario(self):
        with pytest.raises(KeyError):
            compare_variants("Nope", [])
