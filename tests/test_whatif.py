"""Tests for the what-if framework."""

import dataclasses
import io

import pytest

from repro.artifacts.store import default_store, reset_default_store
from repro.cli import main
from repro.sim import driver
from repro.sim.driver import run_spec
from repro.sim.scenarios import PAPER_SCENARIOS
from repro.spec.grid import GridAxis, GridSpec
from repro.spec.model import apply_to_scenario
from repro.spec.runner import render_comparison, run_grid
from repro.whatif.metrics import extract_metrics
from repro.whatif.variants import standard_variants, variant_by_name

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
        assert apply_to_scenario(spec, variant_by_name("baseline").changes) == (
            spec, "preferred",
        )

    def test_transforms_change_only_their_field(self):
        spec = PAPER_SCENARIOS["EU1-ADSL"]
        flash, _ = apply_to_scenario(spec, variant_by_name("flash-crowd").changes)
        assert flash.featured_share == 0.25
        assert dataclasses.replace(flash, featured_share=spec.featured_share) == spec

    def test_old_policy_is_policy_only(self):
        variant = variant_by_name("old-policy")
        spec = PAPER_SCENARIOS["EU1-ADSL"]
        assert apply_to_scenario(spec, variant.changes) == (spec, "proportional")


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



def variant_grid(scenario, names):
    """A what-if comparison: a one-axis grid over variant names."""
    return GridSpec(base=scenario, axes=(GridAxis("variant", names),))


class TestComparison:
    @pytest.fixture(scope="class")
    def report(self):
        names = ("baseline", "old-policy", "sparse-replication")
        return run_grid(variant_grid("EU1-FTTH", names), scale=SCALE, seed=SEED)

    def test_baseline_prepended(self):
        out = io.StringIO()
        argv = ["whatif", "--dataset", "EU1-FTTH", "--scale", str(SCALE),
                "--seed", str(SEED), "--variants", "old-policy,sparse-replication"]
        assert main(argv, out=out) == 0
        rows = out.getvalue().splitlines()[3:]
        assert [row.split()[0] for row in rows] == [
            "baseline", "old-policy", "sparse-replication",
        ]

    def test_old_policy_destroys_locality(self, report):
        baseline = report.row("variant=baseline")
        old = report.row("variant=old-policy")
        assert old.preferred_share < 0.3
        assert old.median_serving_rtt_ms > 3.0 * baseline.median_serving_rtt_ms
        assert old.distinct_dcs > baseline.distinct_dcs

    def test_sparse_replication_raises_misses(self, report):
        sparse = report.row("variant=sparse-replication")
        assert sparse.miss_rate > 1.5 * report.row("variant=baseline").miss_rate

    def test_render(self, report):
        text = render_comparison(report)
        assert "WHAT-IF COMPARISON" in text
        assert "old-policy" in text

    def test_unknown_scenario(self):
        with pytest.raises(KeyError):
            run_grid(variant_grid("Nope", ("baseline",)))


class TestOneRowPerWorld:
    def test_variant_sweep_point_and_grid_point_share_one_row(self, monkeypatch, tmp_path):
        """The flash-crowd variant, the ``featured_share=0.25`` sweep point
        and the grid's ``variant=flash-crowd`` point build one world, so
        the three front ends store one ``whatif/metrics`` row per world."""
        monkeypatch.setenv("REPRO_CACHE", "on")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        reset_default_store()
        driver.clear_cache()
        try:
            common = ["--scale", "0.004", "--seed", "7"]
            for argv in (
                ["whatif", "--dataset", "EU1-FTTH", "--variants", "flash-crowd"],
                ["sweep", "--dataset", "EU1-FTTH", "--parameter", "featured_share",
                 "--values", "0.25"],
                ["grid", "run", "--base", "EU1-FTTH",
                 "--axis", "variant=baseline,flash-crowd"],
            ):
                out = io.StringIO()
                assert main(argv + common, out=out) == 0
            stages = default_store().lifetime_counters()["stages"]
            assert stages["whatif/metrics"]["misses"] == 2
            assert out.getvalue().splitlines()[-1] == (
                "grid: 2 points (2 warm, 0 simulated)"
            )
        finally:
            reset_default_store()
            driver.clear_cache()
