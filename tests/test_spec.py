"""Unit tests for the declarative scenario-spec subsystem.

Covers the ScenarioInfo normalisation contract, Spec validation and
algebra (compose/diff/apply), serialisation codecs (JSON and gated
TOML), the named-spec registry, grid enumeration/filters, and the
grid runner's warm/cold planning.  Property-based counterparts live in
``test_spec_properties.py``.
"""

from __future__ import annotations

import dataclasses
import os
import re
import subprocess
import sys

import pytest

from repro.artifacts.store import reset_default_store
from repro.sim import driver
from repro.sim.scenarios import GOOGLE_DC_PLAN, PAPER_SCENARIOS, build_world
from repro.spec.grid import GridAxis, GridPoint, GridSpec, diff_grids, enumerate_points, load_grid
from repro.spec.info import ScenarioInfo, SpecError, describe
from repro.spec.model import (
    EMPTY_SPEC,
    Spec,
    apply_to_scenario,
    diff,
    par_delta,
)
from repro.spec.registry import named_spec, scenario_spec
from repro.spec.runner import plan_grid, run_grid


class TestScenarioInfo:
    def test_normalises_order_and_duplicates(self):
        a = ScenarioInfo(
            sets={"detour": [("dc-b", 2.0), ("dc-a", 1.0), ("dc-b", 2.0)]},
            pars={"beta": 2, "alpha": 1},
        )
        b = ScenarioInfo(
            sets={"detour": [("dc-a", 1.0), ("dc-b", 2.0)]},
            pars={"alpha": 1, "beta": 2},
        )
        assert a == b
        assert a.cache_fingerprint() == b.cache_fingerprint()

    def test_empty_sets_are_dropped(self):
        info = ScenarioInfo(sets={"detour": []}, pars={})
        assert info.is_empty
        assert info == ScenarioInfo()

    def test_set_accessor_absent_is_empty(self):
        assert ScenarioInfo().set("detour") == ()

    def test_rejects_non_scalar_pars(self):
        with pytest.raises(SpecError):
            ScenarioInfo(pars={"bad": [1, 2]})

    def test_rejects_non_sequence_elements(self):
        with pytest.raises(SpecError):
            ScenarioInfo(sets={"detour": [object()]})

    def test_merge_unions_sets_and_overrides_pars(self):
        a = ScenarioInfo(sets={"detour": [("dc-a", 1.0)]}, pars={"x": 1})
        b = ScenarioInfo(sets={"detour": [("dc-b", 2.0)]}, pars={"x": 2})
        merged = a.merge(b)
        assert merged.set("detour") == (("dc-a", 1.0), ("dc-b", 2.0))
        assert merged.pars_dict == {"x": 2}

    def test_without_elements_and_pars(self):
        info = ScenarioInfo(
            sets={"detour": [("dc-a", 1.0), ("dc-b", 2.0)]}, pars={"x": 1, "y": 2}
        )
        pruned = info.without_elements(
            ScenarioInfo(sets={"detour": [("dc-a", 1.0)]})
        )
        assert pruned.set("detour") == (("dc-b", 2.0),)
        assert pruned.pars_dict == {"x": 1, "y": 2}
        assert info.without_pars(["x"]).pars_dict == {"y": 2}

    def test_json_round_trip(self):
        info = ScenarioInfo(
            sets={"subnet": [("Net-1", 0.5, True)]}, pars={"zipf_alpha": 0.9}
        )
        assert ScenarioInfo.from_json_dict(info.to_json_dict()) == info

    def test_from_json_rejects_unknown_keys(self):
        with pytest.raises(SpecError):
            ScenarioInfo.from_json_dict({"stes": {}})

    def test_describe_round_trips_through_diff(self):
        us = PAPER_SCENARIOS["US-Campus"]
        eu2 = PAPER_SCENARIOS["EU2"]
        delta = diff(us, eu2)
        rebuilt, policy = apply_to_scenario(us, delta)
        assert rebuilt == dataclasses.replace(eu2)
        assert policy == "preferred"

    def test_describe_rejects_non_scenarios(self):
        with pytest.raises(SpecError):
            describe({"name": "nope"})


class TestSpecValidation:
    def test_unknown_set_name_rejected(self):
        with pytest.raises(SpecError):
            Spec(add=ScenarioInfo(sets={"cluster": [("a", 1)]}))

    def test_wrong_arity_rejected(self):
        with pytest.raises(SpecError):
            Spec(add=ScenarioInfo(sets={"detour": [("dc-a", 1.0, 3.0)]}))

    def test_remove_pars_rejected(self):
        with pytest.raises(SpecError):
            Spec(remove=ScenarioInfo(pars={"zipf_alpha": 0.9}))

    def test_unknown_par_rejected(self):
        with pytest.raises(SpecError):
            par_delta(warp_factor=9)

    def test_set_backed_field_not_assignable_as_par(self):
        with pytest.raises(SpecError):
            par_delta(subnets=("Net-1",))

    def test_policy_par_validated(self):
        with pytest.raises(SpecError):
            par_delta(policy="nearest")
        assert par_delta(policy="geographic").add.pars_dict["policy"] == "geographic"

    def test_par_type_coercion_rejects_mismatches(self):
        with pytest.raises(SpecError):
            par_delta(num_clients="many")
        with pytest.raises(SpecError):
            par_delta(residential=1)
        with pytest.raises(SpecError):
            par_delta(zipf_alpha="steep")

    def test_empty_spec_is_identity_flagged(self):
        assert EMPTY_SPEC.is_empty
        assert not par_delta(zipf_alpha=0.9).is_empty


class TestCompose:
    def test_add_then_remove_cancels(self):
        a = Spec(add=ScenarioInfo(sets={"detour": [("dc-a", 1.0)]}))
        b = Spec(remove=ScenarioInfo(sets={"detour": [("dc-a", 1.0)]}))
        composed = a.compose(b)
        assert composed.add.is_empty
        assert composed.remove.is_empty

    def test_later_par_wins(self):
        composed = par_delta(zipf_alpha=0.7).compose(par_delta(zipf_alpha=0.9))
        assert composed.add.pars_dict == {"zipf_alpha": 0.9}

    def test_requires_discharged_by_first_add(self):
        a = par_delta(zipf_alpha=0.9)
        b = Spec(require=ScenarioInfo(pars={"zipf_alpha": 0.9}))
        assert a.compose(b).require.is_empty

    def test_conflicting_require_rejected(self):
        a = par_delta(zipf_alpha=0.9)
        b = Spec(require=ScenarioInfo(pars={"zipf_alpha": 0.7}))
        with pytest.raises(SpecError):
            a.compose(b)


class TestCodecs:
    def test_spec_json_round_trip(self):
        spec = Spec(
            require=ScenarioInfo(pars={"residential": True}),
            remove=ScenarioInfo(sets={"detour": [("dc-a", 1.0)]}),
            add=ScenarioInfo(sets={"subnet": [("Net-9", 0.1, False)]},
                             pars={"zipf_alpha": 0.9}),
        )
        assert Spec.from_json(spec.to_json()) == spec

    def test_empty_parts_omitted(self):
        assert par_delta(zipf_alpha=0.9).to_json_dict().keys() == {"add"}

    def test_malformed_json_raises_spec_error(self):
        with pytest.raises(SpecError):
            Spec.from_json("{not json")
        with pytest.raises(SpecError):
            Spec.from_json_dict({"patch": {}})


class TestApply:
    def test_empty_spec_returns_base_identically(self):
        base = PAPER_SCENARIOS["EU1-FTTH"]
        scenario, policy = apply_to_scenario(base, EMPTY_SPEC)
        assert scenario is base
        assert policy == "preferred"

    def test_policy_par_routes_to_policy_kind(self):
        base = PAPER_SCENARIOS["EU1-FTTH"]
        scenario, policy = apply_to_scenario(base, par_delta(policy="geographic"))
        assert scenario is base  # no field changed
        assert policy == "geographic"

    def test_require_violation_names_the_gap(self):
        base = PAPER_SCENARIOS["EU1-FTTH"]
        spec = Spec(require=ScenarioInfo(pars={"residential": False}))
        with pytest.raises(SpecError, match="residential"):
            apply_to_scenario(base, spec)

    def test_remove_absent_element_rejected(self):
        base = PAPER_SCENARIOS["EU1-FTTH"]
        spec = Spec(remove=ScenarioInfo(sets={"detour": [("dc-oslo", 9.0)]}))
        with pytest.raises(SpecError, match="not present"):
            apply_to_scenario(base, spec)

    def test_duplicate_add_rejected(self):
        base = PAPER_SCENARIOS["EU1-FTTH"]
        spec = Spec(add=ScenarioInfo(sets={"detour": [("dc-milan", 0.0)]}))
        with pytest.raises(SpecError, match="already present"):
            apply_to_scenario(base, spec)

    def test_datacenter_delta_folds_into_plan_fields(self):
        base = PAPER_SCENARIOS["EU1-FTTH"]
        miami = next(pair for pair in GOOGLE_DC_PLAN if pair[0] == "Miami")
        spec = Spec(
            remove=ScenarioInfo(sets={"datacenter": [miami]}),
            add=ScenarioInfo(sets={"datacenter": [("Oslo", 48)]}),
        )
        scenario, _ = apply_to_scenario(base, spec)
        assert scenario.removed_dcs == ("Miami",)
        assert scenario.extra_dcs == (("Oslo", 48),)
        plan = dict(scenario.effective_dc_plan())
        assert "Miami" not in plan and plan["Oslo"] == 48

    def test_datacenter_remove_needs_exact_pair(self):
        base = PAPER_SCENARIOS["EU1-FTTH"]
        spec = Spec(remove=ScenarioInfo(sets={"datacenter": [("Miami", 1)]}))
        with pytest.raises(SpecError, match="not in the base plan"):
            apply_to_scenario(base, spec)

    def test_readding_removed_builtin_restores_it(self):
        miami = next(pair for pair in GOOGLE_DC_PLAN if pair[0] == "Miami")
        gone = Spec(remove=ScenarioInfo(sets={"datacenter": [miami]}))
        back = Spec(add=ScenarioInfo(sets={"datacenter": [miami]}))
        scenario, _ = apply_to_scenario(
            PAPER_SCENARIOS["EU1-FTTH"], gone.compose(back)
        )
        assert scenario.removed_dcs == ()
        assert scenario.extra_dcs == ()

    def test_extra_dc_world_actually_grows(self):
        spec = Spec(add=ScenarioInfo(sets={"datacenter": [("Oslo", 48)]}))
        scenario, policy = apply_to_scenario(PAPER_SCENARIOS["EU1-FTTH"], spec)
        world = build_world(scenario, scale=0.002, duration_s=3600.0,
                            policy_kind=policy)
        cities = {dc.city.name for dc in world.system.directory}
        assert "Oslo" in cities


class TestRegistry:
    def test_spec_package_imports_first(self):
        # repro.spec.registry and repro.sim.scenarios import each other (the
        # registry needs ScenarioSpec; PAPER_SCENARIOS materialises from the
        # registry).  Either module must be importable first in a fresh
        # interpreter.
        for first in ("repro.spec.registry", "repro.sim.scenarios", "repro.sim.driver"):
            code = (
                f"import {first}\n"
                "from repro.sim.scenarios import PAPER_SCENARIOS\n"
                "from repro.spec.registry import paper_scenarios\n"
                "assert PAPER_SCENARIOS == paper_scenarios()\n"
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
            assert isinstance(named_spec(name), Spec)

    def test_materialised_specs_match_paper_scenarios(self):
        for name, spec in PAPER_SCENARIOS.items():
            assert scenario_spec(name) == spec

    def test_materialisation_is_memoised(self):
        assert scenario_spec("EU2") is scenario_spec("EU2")

    def test_unknown_name_raises_key_error(self):
        with pytest.raises(KeyError, match="Mars"):
            named_spec("Mars")


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
        assert points[0].delta.is_empty

    def test_dataset_axis_switches_base(self):
        grid = GridSpec(axes=(GridAxis("dataset", ("EU1-FTTH", "EU2")),))
        points = enumerate_points(grid)
        assert [p.base for p in points] == ["EU1-FTTH", "EU2"]
        assert all(p.delta.is_empty for p in points)

    def test_variant_axis_composes_variant_spec(self):
        from repro.whatif.variants import variant_by_name

        grid = GridSpec(axes=(GridAxis("variant", ("old-policy",)),))
        (point,) = enumerate_points(grid)
        assert point.delta == variant_by_name("old-policy").spec

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
        scenario, _ = apply_to_scenario(scenario_spec("EU2"), par_delta(**{axis: value}))
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
        """A one-axis grid over a spec field shares the sweep's artifacts."""
        from repro.whatif.sweep import sweep_parameter

        grid = GridSpec(
            base="EU1-FTTH", axes=(GridAxis("zipf_alpha", (0.8,)),)
        )
        run_grid(grid, **RUN)
        result = sweep_parameter("EU1-FTTH", "zipf_alpha", [0.8], **RUN)
        assert result.metrics[0].label == "zipf_alpha=0.8"
        from repro.artifacts.store import default_store

        counters = default_store().lifetime_counters()["stages"]["whatif/metrics"]
        assert counters["hits"] >= 1  # the sweep re-read the grid's row
