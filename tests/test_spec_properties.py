"""Property-based invariants of the scenario-spec subsystem (hypothesis).

Randomised checks of the contracts the spec layer advertises:

- A :class:`~repro.spec.model.Spec` survives a JSON round-trip exactly.
- Composition of deltas over *disjoint* sets/pars is associative.
- A violated ``require`` always raises
  :class:`~repro.spec.info.SpecError`, never applies partially.
- :class:`~repro.spec.info.ScenarioInfo` canonicalisation is insensitive
  to element/par construction order (equality and cache fingerprints).
- Cache keys are *sensitive* where they must be (a changed axis value is
  a new key) and *insensitive* where they must be (a re-serialised spec
  keys identically).

The whole module skips cleanly when hypothesis is not installed.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.artifacts.keys import stage_key  # noqa: E402
from repro.sim.scenarios import PAPER_SCENARIOS  # noqa: E402
from repro.spec.info import ScenarioInfo, SpecError, describe  # noqa: E402
from repro.spec.model import Spec, apply_to_scenario, par_delta  # noqa: E402

# ----------------------------------------------------------------- strategies

_DC_NAMES = st.sampled_from(["dc-a", "dc-b", "dc-c", "dc-d", "dc-e", "dc-f"])
_SUBNET_NAMES = st.sampled_from(["Net-6", "Net-7", "Net-8", "Net-9"])
_FINITE = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                    allow_infinity=False).map(lambda v: v + 0.0)  # fold -0.0

#: Numeric ScenarioSpec pars safe to assign with arbitrary positive floats.
_FLOAT_PARS = ("zipf_alpha", "requests_per_day", "egress_ms",
               "spill_probability", "featured_share")

_detours = st.lists(
    st.tuples(_DC_NAMES, _FINITE), max_size=4,
    unique_by=lambda pair: pair[0],
)
_subnets = st.lists(
    st.tuples(_SUBNET_NAMES, _FINITE, st.booleans()), max_size=3,
    unique_by=lambda element: element[0],
)
_pars = st.dictionaries(st.sampled_from(_FLOAT_PARS), _FINITE, max_size=3)


def _info(detours, subnets, pars):
    return ScenarioInfo(sets={"detour": detours, "subnet": subnets}, pars=pars)


@st.composite
def specs(draw):
    """Valid add-only specs (the grid/variant delta shape)."""
    return Spec(
        add=_info(draw(_detours), draw(_subnets), draw(_pars)),
        require=ScenarioInfo(pars=draw(_pars)),
    )


@st.composite
def disjoint_spec_triples(draw):
    """Three add-only specs over pairwise-disjoint detour/par names."""
    detours = draw(st.lists(st.tuples(_DC_NAMES, _FINITE), max_size=6,
                            unique_by=lambda pair: pair[0]))
    pars = draw(_pars)
    splits = [draw(st.integers(0, 3)) for _ in range(len(detours))]
    par_splits = {name: draw(st.integers(0, 3)) for name in pars}
    parts = []
    for bucket in range(3):
        part_detours = [d for d, s in zip(detours, splits) if s == bucket]
        part_pars = {n: v for n, v in pars.items() if par_splits[n] == bucket}
        parts.append(Spec(add=ScenarioInfo(sets={"detour": part_detours},
                                           pars=part_pars)))
    return tuple(parts)


# ------------------------------------------------------------------ round-trip

@given(spec=specs())
@settings(max_examples=60, deadline=None)
def test_spec_json_round_trip(spec):
    assert Spec.from_json(spec.to_json()) == spec
    assert Spec.from_json(spec.to_json(indent=2)) == spec


# ----------------------------------------------------------------- composition

@given(triple=disjoint_spec_triples())
@settings(max_examples=60, deadline=None)
def test_composition_associative_on_disjoint_deltas(triple):
    a, b, c = triple
    assert a.compose(b).compose(c) == a.compose(b.compose(c))


@given(spec=specs())
@settings(max_examples=60, deadline=None)
def test_empty_spec_is_composition_identity(spec):
    identity = Spec()
    assert identity.compose(spec) == spec
    assert spec.compose(identity) == spec


# --------------------------------------------------------------------- require

@given(value=_FINITE)
@settings(max_examples=40, deadline=None)
def test_require_violation_always_raises(value):
    base = PAPER_SCENARIOS["EU1-FTTH"]
    actual = base.zipf_alpha
    spec = Spec(require=ScenarioInfo(pars={"zipf_alpha": value}))
    if value == actual:
        scenario, _ = apply_to_scenario(base, spec)
        assert scenario is base
    else:
        with pytest.raises(SpecError):
            apply_to_scenario(base, spec)


# ------------------------------------------------------------- canonical order

@given(detours=_detours, subnets=_subnets, pars=_pars, seed=st.randoms())
@settings(max_examples=60, deadline=None)
def test_canonicalization_order_insensitive(detours, subnets, pars, seed):
    shuffled_detours = list(detours)
    shuffled_subnets = list(subnets)
    seed.shuffle(shuffled_detours)
    seed.shuffle(shuffled_subnets)
    shuffled_pars = dict(
        sorted(pars.items(), key=lambda item: seed.random())
    )
    a = _info(detours, subnets, pars)
    b = _info(shuffled_detours, shuffled_subnets, shuffled_pars)
    assert a == b
    assert a.cache_fingerprint() == b.cache_fingerprint()
    assert stage_key("test/stage", a) == stage_key("test/stage", b)


# ------------------------------------------------------------------ cache keys

@given(spec=specs())
@settings(max_examples=60, deadline=None)
def test_reserialized_spec_keys_identically(spec):
    reparsed = Spec.from_json(spec.to_json())
    assert stage_key("test/stage", spec) == stage_key("test/stage", reparsed)


@given(name=st.sampled_from(_FLOAT_PARS), a=_FINITE, b=_FINITE)
@settings(max_examples=60, deadline=None)
def test_changed_par_value_changes_key(name, a, b):
    key_a = stage_key("test/stage", par_delta(**{name: a}))
    key_b = stage_key("test/stage", par_delta(**{name: b}))
    assert (key_a == key_b) == (float(a) == float(b))


@given(a=_FINITE, b=_FINITE)
@settings(max_examples=30, deadline=None)
def test_applied_scenario_key_tracks_the_delta(a, b):
    """Applying different deltas to one base yields different world keys."""
    base = PAPER_SCENARIOS["EU1-FTTH"]
    sa, _ = apply_to_scenario(base, par_delta(zipf_alpha=a))
    sb, _ = apply_to_scenario(base, par_delta(zipf_alpha=b))
    keys_equal = stage_key("sim/run_week", sa) == stage_key("sim/run_week", sb)
    assert keys_equal == (float(a) == float(b))


@given(spec=specs())
@settings(max_examples=40, deadline=None)
def test_apply_then_describe_contains_assigned_pars(spec):
    """Every par a delta assigns is visible in the result's description."""
    base = PAPER_SCENARIOS["EU1-FTTH"]
    scenario, policy = apply_to_scenario(base, Spec(add=spec.add))
    view = describe(scenario, policy=policy).pars_dict
    for name, value in spec.add.pars:
        assert view[name] == pytest.approx(value)
