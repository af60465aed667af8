"""Unit tests for scenario deltas and grids.

Covers delta coercion and application (a mapping of ScenarioSpec field →
value, applied with ``dataclasses.replace``), the named scenarios, grid
enumeration/filters, and the grid runner's warm/cold planning.
Property-based counterparts live in ``test_spec_properties.py``.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys

import pytest

from repro.artifacts.store import reset_default_store
from repro.monitor.evolution import STATIC_PLAN, EvolutionPlan, EvolutionStep
from repro.sim import driver
from repro.sim.scenarios import build_world
from repro.sim.specs import GOOGLE_DC_PLAN, PAPER_SCENARIOS, ScenarioSpec, named_scenario
from repro.spec.grid import GridAxis, GridPoint, GridSpec, diff_grids, enumerate_points, load_grid
from repro.spec.model import SpecError, apply_to_scenario, coerce_par
from repro.spec.runner import plan_grid, run_grid


class TestSpecValidation:
    def test_rejects_non_scalar_pars(self):
        with pytest.raises(SpecError):
            coerce_par("zipf_alpha", [1, 2])

    def test_wrong_arity_rejected(self):
        with pytest.raises(SpecError):
            coerce_par("extra_dcs", [["Oslo", 48, 3.0]])

    def test_unknown_par_rejected(self):
        with pytest.raises(SpecError):
            coerce_par("warp_factor", 9)

    def test_set_backed_field_not_assignable_as_par(self):
        with pytest.raises(SpecError, match="not assignable"):
            coerce_par("subnets", ("Net-1",))
        with pytest.raises(SpecError, match="not assignable"):
            coerce_par("detour_pins", [["dc-milan", 0.0]])

    def test_policy_par_validated(self):
        with pytest.raises(SpecError):
            coerce_par("policy", "nearest")
        assert coerce_par("policy", "geographic") == "geographic"

    def test_par_type_coercion_rejects_mismatches(self):
        with pytest.raises(SpecError):
            coerce_par("num_clients", "many")
        with pytest.raises(SpecError):
            coerce_par("residential", 1)
        with pytest.raises(SpecError):
            coerce_par("zipf_alpha", "steep")
        with pytest.raises(SpecError):
            coerce_par("extra_dcs", [["Oslo", "big"]])
        with pytest.raises(SpecError):
            coerce_par("removed_dcs", "Miami")

    def test_empty_spec_is_identity_flagged(self):
        base = PAPER_SCENARIOS["EU1-FTTH"]
        assert STATIC_PLAN.spec_at(5) == {}
        assert apply_to_scenario(base, STATIC_PLAN.spec_at(5))[0] is base
        with pytest.raises(SpecError, match="empty"):
            EvolutionStep(epoch=2, changes={})


class TestCompose:
    def test_later_par_wins(self):
        grid = GridSpec(axes=(GridAxis("variant", ("tiny-edge-cache",)),
                              GridAxis("regional_presence_prob", (0.9,))))
        (point,) = enumerate_points(grid)
        assert point.delta == {"cache_capacity": 25, "regional_presence_prob": 0.9}


class TestCodecs:
    def test_spec_json_round_trip(self):
        plan = EvolutionPlan(steps=(EvolutionStep(epoch=3, changes={
            "access": "FTTH",
            "cache_capacity": None,
            "removed_dcs": ["Miami"],
            "extra_dcs": [["Oslo", 48]],
            "policy": "geographic",
        }),))
        again = EvolutionPlan.from_json(plan.to_json())
        assert again == plan
        base = PAPER_SCENARIOS["EU1-ADSL"]
        assert apply_to_scenario(base, again.spec_at(3)) == apply_to_scenario(
            base, plan.spec_at(3)
        )

    def test_empty_parts_omitted(self):
        step = EvolutionStep(epoch=2, changes={"zipf_alpha": 0.9})
        assert step.to_json_dict().keys() == {"epoch", "changes"}

    def test_malformed_json_raises_spec_error(self):
        with pytest.raises(SpecError):
            GridSpec.from_json("{not json")
        with pytest.raises(SpecError):
            EvolutionPlan.from_json("{not json")


class TestApply:
    def test_empty_spec_returns_base_identically(self):
        base = PAPER_SCENARIOS["EU1-FTTH"]
        scenario, policy = apply_to_scenario(base, {})
        assert scenario is base
        assert policy == "preferred"

    def test_policy_par_routes_to_policy_kind(self):
        base = PAPER_SCENARIOS["EU1-FTTH"]
        scenario, policy = apply_to_scenario(base, {"policy": "geographic"})
        assert scenario is base  # no field changed
        assert policy == "geographic"

    def test_remove_absent_element_rejected(self):
        scenario, _ = apply_to_scenario(PAPER_SCENARIOS["EU1-FTTH"], {"removed_dcs": ["Oslo"]})
        with pytest.raises(ValueError, match="no known data center"):
            scenario.effective_dc_plan()

    def test_duplicate_add_rejected(self):
        scenario, _ = apply_to_scenario(PAPER_SCENARIOS["EU1-FTTH"], {"extra_dcs": [["Milan", 8]]})
        with pytest.raises(ValueError, match="duplicate data-center cities"):
            scenario.effective_dc_plan()

    def test_datacenter_delta_folds_into_plan_fields(self):
        base = PAPER_SCENARIOS["EU1-FTTH"]
        delta = {"removed_dcs": ["Miami"], "extra_dcs": [["Oslo", 48]]}
        scenario, _ = apply_to_scenario(base, delta)
        assert scenario.removed_dcs == ("Miami",)
        assert scenario.extra_dcs == (("Oslo", 48),)
        plan = dict(scenario.effective_dc_plan())
        assert "Miami" not in plan and plan["Oslo"] == 48

    def test_readding_removed_builtin_restores_it(self):
        plan = EvolutionPlan(steps=(
            EvolutionStep(epoch=1, changes={"removed_dcs": ["Miami"]}),
            EvolutionStep(epoch=2, changes={"removed_dcs": []}),
        ))
        gone, _ = apply_to_scenario(PAPER_SCENARIOS["EU1-FTTH"], plan.spec_at(1))
        back, _ = apply_to_scenario(PAPER_SCENARIOS["EU1-FTTH"], plan.spec_at(2))
        assert gone.removed_dcs == ("Miami",)
        assert back.removed_dcs == ()
        assert back.effective_dc_plan() == GOOGLE_DC_PLAN

    def test_extra_dc_world_actually_grows(self):
        scenario, policy = apply_to_scenario(
            PAPER_SCENARIOS["EU1-FTTH"], {"extra_dcs": [["Oslo", 48]]}
        )
        world = build_world(scenario, scale=0.002, duration_s=3600.0,
                            policy_kind=policy)
        cities = {dc.city.name for dc in world.system.directory}
        assert "Oslo" in cities


class TestRegistry:
    def test_spec_package_imports_first(self):
        # The named scenarios are plain values: either side imports first
        # in a fresh interpreter, and the scenarios never load repro.spec.
        for first in ("repro.spec.grid", "repro.sim.specs", "repro.sim.driver"):
            code = (
                f"import {first}\n"
                "import sys\n"
                "from repro.sim.specs import PAPER_SCENARIOS, named_scenario\n"
                "assert all(named_scenario(n) is s for n, s in PAPER_SCENARIOS.items())\n"
                f"assert {first!r} == 'repro.spec.grid' or 'repro.spec' not in sys.modules\n"
            )
            proc = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": "src"},
                cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            )
            assert proc.returncode == 0, f"{first} first failed:\n{proc.stderr}"

    def test_all_datasets_registered(self):
        for name in (*PAPER_SCENARIOS, "US-Campus-Feb2011"):
            assert isinstance(named_scenario(name), ScenarioSpec)
            assert named_scenario(name).name == name

    def test_materialised_specs_match_paper_scenarios(self):
        for name, spec in PAPER_SCENARIOS.items():
            assert named_scenario(name) is spec
        feb = named_scenario("US-Campus-Feb2011")
        assert feb.preferred_override == "dc-mountain-view"
        assert [dc for dc, _ in feb.detour_pins] == sorted(
            [dc for dc, _ in PAPER_SCENARIOS["US-Campus"].detour_pins] + ["dc-mountain-view"]
        )

    def test_materialisation_is_memoised(self):
        assert named_scenario("EU2") is named_scenario("EU2") is PAPER_SCENARIOS["EU2"]

    def test_unknown_name_raises_key_error(self):
        with pytest.raises(KeyError, match="Mars"):
            named_scenario("Mars")


class TestGrid:
    def test_axis_validation(self):
        with pytest.raises(SpecError):
            GridAxis("", (1,))
        with pytest.raises(SpecError):
            GridAxis("x", ())
        with pytest.raises(SpecError):
            GridAxis("x", (1, 1))
        with pytest.raises(SpecError):
            GridAxis("x", ([1],))
        # Duplicates are type-aware: 1, 1.0 and True are three values.
        assert GridAxis("x", (1, 1.0, True)).values == (1, 1.0, True)

    def test_duplicate_axis_names_rejected(self):
        with pytest.raises(SpecError):
            GridSpec(axes=(GridAxis("x", (1,)), GridAxis("x", (2,))))

    def test_filter_must_reference_known_axis(self):
        with pytest.raises(SpecError):
            GridSpec(axes=(GridAxis("x", (1,)),), filters=[[("y", 1)]])

    def test_enumeration_order_and_labels(self):
        grid = GridSpec(
            base="EU1-FTTH",
            axes=(GridAxis("policy", ("preferred", "geographic")),
                  GridAxis("zipf_alpha", (0.8, 1.0))),
        )
        points = enumerate_points(grid)
        assert [p.label for p in points] == [
            "policy=preferred,zipf_alpha=0.8",
            "policy=preferred,zipf_alpha=1.0",
            "policy=geographic,zipf_alpha=0.8",
            "policy=geographic,zipf_alpha=1.0",
        ]
        assert all(isinstance(p, GridPoint) for p in points)

    def test_filters_drop_matching_combinations(self):
        grid = GridSpec(
            base="EU1-FTTH",
            axes=(GridAxis("policy", ("preferred", "geographic")),
                  GridAxis("zipf_alpha", (0.8, 1.0))),
            filters=[[("policy", "geographic"), ("zipf_alpha", 1.0)]],
        )
        labels = [p.label for p in enumerate_points(grid)]
        assert "policy=geographic,zipf_alpha=1.0" not in labels
        assert len(labels) == 3

    def test_filters_dropping_everything_rejected(self):
        grid = GridSpec(
            base="EU1-FTTH",
            axes=(GridAxis("policy", ("preferred",)),),
            filters=[[("policy", "preferred")]],
        )
        with pytest.raises(SpecError, match="empty grid"):
            enumerate_points(grid)

    def test_no_axes_enumerates_bare_base(self):
        points = enumerate_points(GridSpec(base="EU2"))
        assert len(points) == 1
        assert points[0].label == ""
        assert points[0].delta == {}

    def test_dataset_axis_switches_base(self):
        grid = GridSpec(axes=(GridAxis("dataset", ("EU1-FTTH", "EU2")),))
        points = enumerate_points(grid)
        assert [p.base for p in points] == ["EU1-FTTH", "EU2"]
        assert all(p.delta == {} for p in points)

    def test_variant_axis_composes_variant_spec(self):
        from repro.whatif.variants import variant_by_name

        grid = GridSpec(axes=(GridAxis("variant", ("old-policy",)),))
        (point,) = enumerate_points(grid)
        assert point.delta == variant_by_name("old-policy").changes

    def test_bad_axis_values_fail_before_any_run(self):
        with pytest.raises(SpecError):
            enumerate_points(GridSpec(axes=(GridAxis("policy", ("nearest",)),)))
        with pytest.raises(SpecError):
            enumerate_points(GridSpec(axes=(GridAxis("warp_factor", (9,)),)))
        with pytest.raises(KeyError):
            enumerate_points(GridSpec(axes=(GridAxis("dataset", ("Mars",)),)))
        with pytest.raises(KeyError):
            enumerate_points(GridSpec(base="Mars"))

    def test_grid_json_round_trip(self, tmp_path):
        grid = GridSpec(
            base="EU2",
            axes=(GridAxis("policy", ("preferred", "geographic")),),
            filters=[[("policy", "geographic")]],
        )
        parsed = GridSpec.from_json(grid.to_json())
        assert parsed == grid
        path = tmp_path / "grid.json"
        path.write_text(grid.to_json())
        assert load_grid(str(path)) == grid

    def test_grid_json_rejects_unknown_keys(self):
        with pytest.raises(SpecError):
            GridSpec.from_json('{"bases": "EU2"}')

    def test_diff_grids_reports_added_removed_common(self):
        small = GridSpec(axes=(GridAxis("policy", ("preferred",)),))
        large = GridSpec(
            axes=(GridAxis("policy", ("preferred", "geographic")),)
        )
        difference = diff_grids(small, large)
        assert difference == {
            "added": ["policy=geographic"],
            "removed": [],
            "common": ["policy=preferred"],
        }


@pytest.fixture
def cache_env(monkeypatch, tmp_path):
    """A live artifact cache in a fresh temp dir (suite default is off)."""
    monkeypatch.setenv("REPRO_CACHE", "on")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    reset_default_store()
    driver.clear_cache()
    yield tmp_path
    reset_default_store()
    driver.clear_cache()


RUN = dict(scale=0.002, seed=7, duration_s=21600.0)


class TestRunner:
    @pytest.mark.parametrize("axis, value, needle", [
        ("rebalance_probability", 2.0, "rebalance_probability must be in [0, 1), got 2.0"),
        ("origin_fetch_probability", 1.5, "origin_fetch_probability must be in [0, 1], got 1.5"),
        ("replicated_mass", 0.0, "replicated_mass must be in (0, 1], got 0.0"),
        ("cache_capacity", 0, "cache_capacity must be >= 1 (or None), got 0"),
    ])
    def test_out_of_range_point_fails_before_any_simulation(self, axis, value, needle):
        valid = 5 if axis == "cache_capacity" else 0.1  # runs first, if anything does
        grid = GridSpec(base="EU2", axes=(GridAxis(axis, (valid, value)),))
        for run in (plan_grid, run_grid):
            with pytest.raises(SpecError, match=re.escape(needle)):
                run(grid, **RUN)
        # Composing alone stays permissive: only a point about to run is checked.
        scenario, _ = apply_to_scenario(named_scenario("EU2"), {axis: value})
        assert getattr(scenario, axis) == value

    def test_plan_marks_everything_cold_without_cache(self):
        grid = GridSpec(axes=(GridAxis("policy", ("preferred", "geographic")),))
        plan = plan_grid(grid, **RUN)
        assert [p["warm"] for p in plan] == [False, False]
        assert [p["policy"] for p in plan] == ["preferred", "geographic"]

    def test_extended_grid_simulates_only_added_points(self, cache_env):
        small = GridSpec(axes=(GridAxis("policy", ("preferred",)),))
        cold = run_grid(small, **RUN)
        assert (cold.warm, cold.cold) == (0, 1)

        large = GridSpec(
            axes=(GridAxis("policy", ("preferred", "proportional")),)
        )
        warm = run_grid(large, **RUN)
        assert (warm.warm, warm.cold) == (1, 1)
        assert warm.row("policy=preferred").requests == cold.rows[0].requests
        with pytest.raises(KeyError):
            warm.row("policy=nearest")

    def test_grid_row_labels_match_sweep_labels(self, cache_env):
        """``repro sweep`` runs the one-axis grid over its field, so its
        point is the ``grid run`` point and re-reads that point's row."""
        import io

        from repro.artifacts.store import default_store
        from repro.cli import main

        common = ["--scale", "0.002", "--seed", "7"]
        grid_out, sweep_out = io.StringIO(), io.StringIO()
        assert main(["grid", "run", "--base", "EU1-FTTH", "--axis", "zipf_alpha=0.8",
                     "--metrics", "requests", *common], out=grid_out) == 0
        assert main(["sweep", "--dataset", "EU1-FTTH", "--parameter", "zipf_alpha",
                     "--values", "0.8", "--metrics", "requests", *common],
                    out=sweep_out) == 0
        grid_row = grid_out.getvalue().splitlines()[1].split()
        sweep_row = sweep_out.getvalue().splitlines()[1].split()
        assert grid_row[0] == "zipf_alpha=0.8" and sweep_row[0] == "0.8000"
        assert grid_row[1:] == sweep_row[1:]
        counters = default_store().lifetime_counters()["stages"]["whatif/metrics"]
        assert (counters["misses"], counters["hits"]) == (1, 1)
