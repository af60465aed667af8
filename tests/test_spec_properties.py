"""Property-based invariants of scenario deltas (hypothesis).

Randomised checks of the contracts the delta layer advertises:

- An evolution plan survives a JSON round-trip exactly.
- The empty delta is the identity of merging.
- Every field a delta assigns is visible on the applied scenario.
- Cache keys are *sensitive* where they must be (a changed value is a
  new key) and *insensitive* where they must be (a delta written in
  another order, or re-read from JSON, keys identically).

The whole module skips cleanly when hypothesis is not installed.
"""

from __future__ import annotations

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.artifacts.keys import stage_key  # noqa: E402
from repro.monitor.evolution import EvolutionPlan, EvolutionStep  # noqa: E402
from repro.sim.scenarios import PAPER_SCENARIOS  # noqa: E402
from repro.spec.grid import GridAxis, GridSpec, enumerate_points  # noqa: E402
from repro.spec.model import apply_to_scenario  # noqa: E402

# ----------------------------------------------------------------- strategies

_CITIES = st.sampled_from(["Oslo", "Helsinki", "Prague", "Athens"])
_FINITE = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                    allow_infinity=False).map(lambda v: v + 0.0)  # fold -0.0

#: Numeric ScenarioSpec pars safe to assign with arbitrary positive floats.
_FLOAT_PARS = ("zipf_alpha", "requests_per_day", "egress_ms",
               "spill_probability", "featured_share")

_pars = st.dictionaries(st.sampled_from(_FLOAT_PARS), _FINITE, max_size=3)
_extra_dcs = st.lists(
    st.tuples(_CITIES, st.integers(1, 128)), max_size=3,
    unique_by=lambda pair: pair[0],
)


@st.composite
def deltas(draw):
    """Valid deltas: float pars, optionally an extra-DC list."""
    delta = draw(_pars)
    if draw(st.booleans()):
        delta["extra_dcs"] = draw(_extra_dcs)
    return delta


# ------------------------------------------------------------------ round-trip

@given(delta=deltas().filter(bool), epoch=st.integers(1, 30))
@settings(max_examples=60, deadline=None)
def test_spec_json_round_trip(delta, epoch):
    plan = EvolutionPlan(steps=(EvolutionStep(epoch=epoch, changes=delta),))
    again = EvolutionPlan.from_json(plan.to_json())
    assert EvolutionPlan.from_json(again.to_json(indent=2)) == again
    base = PAPER_SCENARIOS["EU1-FTTH"]
    assert apply_to_scenario(base, again.spec_at(epoch)) == apply_to_scenario(
        base, plan.spec_at(epoch)
    )


@given(delta=_pars)
@settings(max_examples=60, deadline=None)
def test_empty_spec_is_composition_identity(delta):
    """Merging the baseline variant's empty delta changes nothing."""
    axes = [GridAxis(name, (value,)) for name, value in delta.items()]
    for grid_axes in ([GridAxis("variant", ("baseline",))] + axes,
                      axes + [GridAxis("variant", ("baseline",))]):
        (point,) = enumerate_points(GridSpec(axes=grid_axes))
        assert point.delta == delta


# ------------------------------------------------------------- canonical order

@given(delta=deltas(), seed=st.randoms())
@settings(max_examples=60, deadline=None)
def test_canonicalization_order_insensitive(delta, seed):
    shuffled = dict(sorted(delta.items(), key=lambda item: seed.random()))
    base = PAPER_SCENARIOS["EU1-FTTH"]
    a, _ = apply_to_scenario(base, delta)
    b, _ = apply_to_scenario(base, shuffled)
    assert a == b
    assert stage_key("test/stage", a) == stage_key("test/stage", b)


# ------------------------------------------------------------------ cache keys

@given(delta=deltas())
@settings(max_examples=60, deadline=None)
def test_reserialized_spec_keys_identically(delta):
    base = PAPER_SCENARIOS["EU1-FTTH"]
    a, _ = apply_to_scenario(base, delta)
    b, _ = apply_to_scenario(base, json.loads(json.dumps(delta)))
    assert stage_key("test/stage", a) == stage_key("test/stage", b)


@given(name=st.sampled_from(_FLOAT_PARS), a=_FINITE, b=_FINITE)
@settings(max_examples=60, deadline=None)
def test_changed_par_value_changes_key(name, a, b):
    key_a = stage_key("test/stage", {name: a})
    key_b = stage_key("test/stage", {name: b})
    assert (key_a == key_b) == (float(a) == float(b))


@given(a=_FINITE, b=_FINITE)
@settings(max_examples=30, deadline=None)
def test_applied_scenario_key_tracks_the_delta(a, b):
    """Applying different deltas to one base yields different world keys."""
    base = PAPER_SCENARIOS["EU1-FTTH"]
    sa, _ = apply_to_scenario(base, {"zipf_alpha": a})
    sb, _ = apply_to_scenario(base, {"zipf_alpha": b})
    keys_equal = stage_key("sim/run_week", sa) == stage_key("sim/run_week", sb)
    assert keys_equal == (float(a) == float(b))


@given(delta=deltas())
@settings(max_examples=40, deadline=None)
def test_apply_then_describe_contains_assigned_pars(delta):
    """Every field a delta assigns is visible on the applied scenario."""
    base = PAPER_SCENARIOS["EU1-FTTH"]
    scenario, policy = apply_to_scenario(base, delta)
    assert policy == "preferred"
    for name, value in delta.items():
        if name == "extra_dcs":
            assert scenario.extra_dcs == tuple(tuple(pair) for pair in value)
        else:
            assert getattr(scenario, name) == pytest.approx(value)
