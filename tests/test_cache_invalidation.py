"""Cache-invalidation properties.

The soundness contract: a stage key changes exactly when the stage's output
could change.  Any perturbation of the scenario parameters, the master
seed, or the code-version tag must therefore produce a *different* key
(miss), while the identical invocation must produce the *same* key (hit).
That a warm study reads every week back, on either backend, with the same
bytes, is a cell of the equivalence contract (``tests/test_contract.py``).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.artifacts import keys
from repro.artifacts.store import ArtifactStore, reset_default_store
from repro.sim import driver
from repro.sim.driver import simulate_week
from repro.sim.scenarios import PAPER_SCENARIOS

SPEC = PAPER_SCENARIOS["EU1-FTTH"]
BASE = dict(scale=0.004, seed=7, duration_s=86400.0, policy_kind="preferred")


def base_key():
    return simulate_week.cache_key(SPEC, **BASE)


@pytest.fixture
def cache_env(monkeypatch, tmp_path):
    """A live cache in a fresh temp dir (the suite default is off)."""
    monkeypatch.setenv("REPRO_CACHE", "on")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    reset_default_store()
    driver.clear_cache()
    yield tmp_path
    reset_default_store()
    driver.clear_cache()


class TestKeyInvalidation:
    """Key-level properties: cheap, no simulation runs."""

    def test_identical_inputs_identical_key(self):
        assert base_key() == base_key()

    @pytest.mark.parametrize("param,value", [
        ("scale", 0.005),
        ("seed", 8),
        ("duration_s", 86401.0),
        ("policy_kind", "proportional"),
    ])
    def test_any_run_parameter_invalidates(self, param, value):
        changed = dict(BASE, **{param: value})
        assert simulate_week.cache_key(SPEC, **changed) != base_key()

    @pytest.mark.parametrize("field", [
        f.name for f in dataclasses.fields(type(SPEC))
        if f.name not in ("name", "vantage_city", "access", "subnets",
                          "detour_pins", "client_block",
                          "extra_dcs", "removed_dcs")
    ])
    def test_every_numeric_spec_field_invalidates(self, field):
        value = getattr(SPEC, field)
        if isinstance(value, bool):
            changed = dataclasses.replace(SPEC, **{field: not value})
        elif isinstance(value, (int, float)):
            changed = dataclasses.replace(SPEC, **{field: value + 1})
        else:
            pytest.skip(f"non-numeric field {field}")
        assert simulate_week.cache_key(changed, **BASE) != base_key()

    def test_spec_name_and_structure_invalidate(self):
        renamed = dataclasses.replace(SPEC, name="EU1-FTTH-b")
        assert simulate_week.cache_key(renamed, **BASE) != base_key()
        pinned = dataclasses.replace(SPEC, detour_pins=(("dc-x", 5.0),))
        assert simulate_week.cache_key(pinned, **BASE) != base_key()
        # The topology axis (spec-layer "datacenter" set deltas) keys too.
        grown = dataclasses.replace(SPEC, extra_dcs=(("Oslo", 48),))
        assert simulate_week.cache_key(grown, **BASE) != base_key()
        shrunk = dataclasses.replace(SPEC, removed_dcs=("Miami",))
        assert simulate_week.cache_key(shrunk, **BASE) != base_key()

    def test_code_version_invalidates(self, monkeypatch):
        before = base_key()
        monkeypatch.setattr(keys, "CODE_VERSION", "999-test")
        assert base_key() != before

    def test_different_scenarios_never_collide(self):
        keys = {simulate_week.cache_key(spec, **BASE)
                for spec in PAPER_SCENARIOS.values()}
        assert len(keys) == len(PAPER_SCENARIOS)


class TestStoreInvalidation:
    """The key properties, observed through an actual store."""

    def test_perturbed_params_miss(self, cache_env):
        store = ArtifactStore(cache_env)
        store.put(base_key(), "week", stage="sim/run_week")
        assert store.get(base_key(), stage="sim/run_week") == "week"
        for param, value in (("seed", 8), ("scale", 0.005)):
            key = simulate_week.cache_key(SPEC, **dict(BASE, **{param: value}))
            assert store.get(key, "MISS", stage="sim/run_week") == "MISS"


