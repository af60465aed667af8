"""Scenario deltas: a mapping of :class:`ScenarioSpec` field → value.

A delta names the fields it changes and their new values, plus the one
synthetic ``"policy"`` key that selects the world's
:func:`~repro.sim.scenarios.build_world` ``policy_kind``.  Applying it
is :func:`dataclasses.replace` over the coerced values, so a what-if
variant, a grid point and a monitor epoch all describe their world the
same way, and the applied :class:`~repro.sim.specs.ScenarioSpec` —
not the delta — is what keys every cached stage.

Every scalar field is assignable, and so are the topology fields
``extra_dcs`` (``[city, fleet size]`` pairs) and ``removed_dcs`` (city
names); ``subnets`` and ``detour_pins`` stay with the named scenario.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping, Tuple


class SpecError(ValueError):
    """A scenario delta is malformed or cannot apply to its base."""


#: ScenarioSpec fields a delta may not assign.
_FIXED_FIELDS = frozenset({"subnets", "detour_pins"})


def policy_kinds() -> Tuple[str, ...]:
    """Selection-policy kinds :func:`repro.sim.scenarios.build_world` accepts.

    Delegates to the policy registry
    (:func:`repro.cdn.selection.registered_policy_kinds`, imported lazily
    to keep the spec layer import-light), so registering a policy makes
    it a valid ``"policy"`` value and grid-axis value with no spec-layer
    change.
    """
    from repro.cdn.selection import registered_policy_kinds

    return registered_policy_kinds()


def _coerce_int(value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(f"expected an integer, got {value!r}")
    if isinstance(value, float):
        if not value.is_integer():
            raise SpecError(f"expected an integer, got {value!r}")
        value = int(value)
    return value


def _coerce_float(value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(f"expected a number, got {value!r}")
    return float(value)


def _coerce_bool(value):
    if not isinstance(value, bool):
        raise SpecError(f"expected a boolean, got {value!r}")
    return value


def _coerce_str(value):
    if not isinstance(value, str):
        raise SpecError(f"expected a string, got {value!r}")
    return value


def _coerce_access(value):
    from repro.net.latency import AccessTechnology

    if isinstance(value, AccessTechnology):
        return value
    try:
        return AccessTechnology[str(value)]
    except KeyError:
        raise SpecError(
            f"unknown access technology {value!r}; expected one of "
            f"{[m.name for m in AccessTechnology]}"
        ) from None


def _sequence(value):
    if isinstance(value, (str, bytes)) or not isinstance(value, (list, tuple)):
        raise SpecError(f"expected a list, got {value!r}")
    return value


def _coerce_extra_dcs(value):
    pairs = []
    for pair in _sequence(value):
        if len(_sequence(pair)) != 2:
            raise SpecError(f"expected a [city, fleet size] pair, got {pair!r}")
        pairs.append((_coerce_str(pair[0]), _coerce_int(pair[1])))
    return tuple(pairs)


def _coerce_removed_dcs(value):
    return tuple(_coerce_str(city) for city in _sequence(value))


def _field_coercions():
    """Mapping of assignable field name -> (coercion callable, optional)."""
    from repro.sim.specs import ScenarioSpec

    table = {
        "extra_dcs": (_coerce_extra_dcs, False),
        "removed_dcs": (_coerce_removed_dcs, False),
    }
    for field in dataclasses.fields(ScenarioSpec):
        if field.name in _FIXED_FIELDS or field.name in table:
            continue
        annotation = str(field.type)
        if "AccessTechnology" in annotation:
            coerce = _coerce_access
        elif "bool" in annotation:
            coerce = _coerce_bool
        elif "int" in annotation:
            coerce = _coerce_int
        elif "float" in annotation:
            coerce = _coerce_float
        else:
            coerce = _coerce_str
        table[field.name] = (coerce, "Optional" in annotation)
    return table


def coerce_par(name: str, value: Any) -> Any:
    """Coerce one delta value to its :class:`ScenarioSpec` field type.

    ``"policy"`` is the one key with no backing field: it selects the
    world's :func:`~repro.sim.scenarios.build_world` ``policy_kind``.

    Raises:
        SpecError: For unknown or fixed field names, or untypeable values.
    """
    if name == "policy":
        kinds = policy_kinds()
        if value not in kinds:
            raise SpecError(
                f"unknown policy {value!r}; registered policies: "
                f"{', '.join(kinds)}"
            )
        return value
    if name in _FIXED_FIELDS:
        raise SpecError(f"field {name!r} is not assignable in a delta")
    table = _field_coercions()
    if name not in table:
        raise SpecError(
            f"unknown par {name!r}; expected 'policy' or an assignable "
            f"ScenarioSpec field ({sorted(table)})"
        )
    coerce, optional = table[name]
    if value is None:
        if not optional:
            raise SpecError(f"par {name!r} cannot be None")
        return None
    try:
        return coerce(value)
    except SpecError as error:
        raise SpecError(f"par {name!r}: {error}") from None


def apply_to_scenario(base, delta: Mapping[str, Any], base_policy: str = "preferred"):
    """Apply a delta to a scenario, yielding a new scenario + policy.

    Args:
        base: The base :class:`~repro.sim.specs.ScenarioSpec`.
        delta: Field → value assignments, plus the optional ``"policy"``.
        base_policy: Policy kind the base is built with when the delta
            sets no ``"policy"``.

    Returns:
        ``(scenario, policy_kind)``.  A delta that assigns no field
        returns ``base`` itself.

    Raises:
        SpecError: For unknown or fixed fields, or untypeable values.
    """
    changes = {name: coerce_par(name, value) for name, value in delta.items()}
    policy = changes.pop("policy", base_policy)
    scenario = dataclasses.replace(base, **changes) if changes else base
    return scenario, policy
