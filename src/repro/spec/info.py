""":class:`ScenarioInfo`: an immutable description of a scenario world.

A :class:`~repro.sim.scenarios.ScenarioSpec` is *imperative* raw material:
a dataclass that :func:`~repro.sim.scenarios.build_world` turns into a
runnable world.  A :class:`ScenarioInfo` is the *declarative* view of the
same world: named **sets** (subnets, detour pins, the data-center plan)
and scalar **pars** (everything else, including the selection policy).
Specs (:mod:`repro.spec.model`) are require/remove/add deltas expressed
over this view, so two worlds can be diffed, a delta can be validated
against a base, and a grid of thousands of scenario points reduces to a
grid of small declarative deltas.

Canonicalisation is strict and total: every element and par is reduced to
the same JSON-native form regardless of construction order, which is what
lets a :class:`ScenarioInfo` slot directly into
:func:`repro.artifacts.keys.stage_key` via ``cache_fingerprint()`` —
equal descriptions, however assembled, always produce equal cache keys.

The vantage point is deliberately *par*-shaped, not set-shaped: a
scenario world has exactly one vantage, so "move the vantage" is a par
assignment (``vantage_city``/``vantage_asn``/``access``), while subnets,
detours and data centers are true sets with element-wise deltas.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple, Union

from repro.artifacts.keys import canonicalize

#: Set names the spec layer understands, and the
#: :class:`~repro.sim.scenarios.ScenarioSpec` shape of their elements.
SET_NAMES: Tuple[str, ...] = ("datacenter", "detour", "subnet")

#: Element arity per set: ``subnet`` elements are (name, client_share,
#: divergent_resolver), ``detour`` elements are (dc_id, detour_ms) and
#: ``datacenter`` elements are (city, fleet_size).
SET_ARITY: Dict[str, int] = {"datacenter": 2, "detour": 2, "subnet": 3}

_SCALARS = (bool, int, float, str)


class SpecError(ValueError):
    """A scenario spec is malformed or incompatible with its base."""


def _freeze(value: Any) -> Any:
    """Recursively convert JSON-native containers to hashable tuples."""
    if value is None or isinstance(value, _SCALARS):
        return value
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    raise SpecError(
        f"set elements must be scalars or sequences of scalars, got "
        f"{type(value).__name__!r}"
    )


def _thaw(value: Any) -> Any:
    """The JSON-native (list-based) form of a frozen element."""
    if isinstance(value, tuple):
        return [_thaw(item) for item in value]
    return value


def canonical_text(value: Any) -> str:
    """Deterministic JSON text of a canonicalisable value (sort key)."""
    return json.dumps(canonicalize(value), sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True, init=False)
class ScenarioInfo:
    """Immutable sets + pars describing (part of) a scenario world.

    Instances normalise on construction: set elements are frozen,
    de-duplicated and sorted by canonical JSON text, empty sets are
    dropped, and pars are sorted by name.  Two infos that describe the
    same sets and pars therefore compare equal — and fingerprint equal —
    no matter how or in what order they were assembled.

    Attributes:
        sets: Sorted ``(name, elements)`` pairs; elements are tuples.
        pars: Sorted ``(name, value)`` pairs; values are scalars or None.
    """

    sets: Tuple[Tuple[str, Tuple[Any, ...]], ...]
    pars: Tuple[Tuple[str, Any], ...]

    def __init__(
        self,
        sets: Optional[Union[Mapping[str, Iterable], Iterable[Tuple[str, Iterable]]]] = None,
        pars: Optional[Union[Mapping[str, Any], Iterable[Tuple[str, Any]]]] = None,
    ):
        norm_sets = []
        for name, elements in sorted(dict(sets or {}).items()):
            if not isinstance(name, str):
                raise SpecError(f"set names must be strings, got {name!r}")
            frozen = {}
            for element in elements:
                item = _freeze(element)
                frozen[canonical_text(item)] = item
            if frozen:
                norm_sets.append(
                    (name, tuple(frozen[text] for text in sorted(frozen)))
                )
        norm_pars = []
        for name, value in sorted(dict(pars or {}).items()):
            if not isinstance(name, str):
                raise SpecError(f"par names must be strings, got {name!r}")
            if value is not None and not isinstance(value, _SCALARS):
                raise SpecError(
                    f"par {name!r} must be a scalar or None, got "
                    f"{type(value).__name__!r}"
                )
            norm_pars.append((name, value))
        object.__setattr__(self, "sets", tuple(norm_sets))
        object.__setattr__(self, "pars", tuple(norm_pars))

    # ------------------------------------------------------------- accessors
    def set(self, name: str) -> Tuple[Any, ...]:
        """Elements of one set (empty tuple when absent)."""
        for set_name, elements in self.sets:
            if set_name == name:
                return elements
        return ()

    @property
    def sets_dict(self) -> Dict[str, Tuple[Any, ...]]:
        """The sets as a plain dict."""
        return dict(self.sets)

    @property
    def pars_dict(self) -> Dict[str, Any]:
        """The pars as a plain dict."""
        return dict(self.pars)

    @property
    def is_empty(self) -> bool:
        """True when the info carries no sets and no pars."""
        return not self.sets and not self.pars

    # ------------------------------------------------------------------ algebra
    def merge(self, other: "ScenarioInfo") -> "ScenarioInfo":
        """Union of sets; pars of ``other`` override this info's."""
        sets: Dict[str, list] = {name: list(elements) for name, elements in self.sets}
        for name, elements in other.sets:
            sets.setdefault(name, []).extend(elements)
        pars = self.pars_dict
        pars.update(other.pars_dict)
        return ScenarioInfo(sets=sets, pars=pars)

    def without_elements(self, other: "ScenarioInfo") -> "ScenarioInfo":
        """This info minus ``other``'s set elements (pars untouched)."""
        drop = {
            name: {canonical_text(e) for e in elements}
            for name, elements in other.sets
        }
        sets = {
            name: [e for e in elements if canonical_text(e) not in drop.get(name, ())]
            for name, elements in self.sets
        }
        return ScenarioInfo(sets=sets, pars=self.pars_dict)

    def without_pars(self, names: Iterable[str]) -> "ScenarioInfo":
        """This info minus the named pars (sets untouched)."""
        dropped = set(names)
        return ScenarioInfo(
            sets=self.sets_dict,
            pars={k: v for k, v in self.pars if k not in dropped},
        )

    # ------------------------------------------------------------- identity
    def cache_fingerprint(self) -> Dict[str, Any]:
        """Canonical identity — hooks into :func:`canonicalize`."""
        return {"sets": dict(self.sets), "pars": dict(self.pars)}

    # ---------------------------------------------------------------- codecs
    def to_json_dict(self) -> Dict[str, Any]:
        """JSON-native form: nested lists, name-sorted mappings."""
        document: Dict[str, Any] = {}
        if self.sets:
            document["sets"] = {
                name: [_thaw(e) for e in elements] for name, elements in self.sets
            }
        if self.pars:
            document["pars"] = dict(self.pars)
        return document

    @classmethod
    def from_json_dict(cls, document: Mapping[str, Any]) -> "ScenarioInfo":
        """Parse the :meth:`to_json_dict` form.

        Raises:
            SpecError: For unknown keys or malformed sets/pars.
        """
        unknown = set(document) - {"sets", "pars"}
        if unknown:
            raise SpecError(f"unknown ScenarioInfo keys: {sorted(unknown)}")
        sets = document.get("sets") or {}
        pars = document.get("pars") or {}
        if not isinstance(sets, Mapping) or not isinstance(pars, Mapping):
            raise SpecError("'sets' and 'pars' must be mappings")
        return cls(sets=sets, pars=pars)


def describe(scenario, policy: str = "preferred") -> ScenarioInfo:
    """The declarative view of a :class:`~repro.sim.scenarios.ScenarioSpec`.

    Every scalar field becomes a par (the ``access`` enum by member name,
    the selection policy under the ``"policy"`` par); ``subnets``,
    ``detour_pins`` and the *effective* Google data-center plan (the
    shared :data:`~repro.sim.scenarios.GOOGLE_DC_PLAN` minus
    ``removed_dcs`` plus ``extra_dcs``) become sets.

    Args:
        scenario: The scenario spec to describe.
        policy: The selection-policy kind the world would be built with.

    Returns:
        The complete :class:`ScenarioInfo` — ``apply`` of a
        :func:`~repro.spec.model.diff` between two describes round-trips.
    """
    import dataclasses

    from repro.sim.scenarios import GOOGLE_DC_PLAN, ScenarioSpec

    if not isinstance(scenario, ScenarioSpec):
        raise SpecError(f"cannot describe {type(scenario).__name__!r}")
    pars: Dict[str, Any] = {"policy": policy}
    for field in dataclasses.fields(ScenarioSpec):
        if field.name in ("subnets", "detour_pins", "extra_dcs", "removed_dcs"):
            continue
        value = getattr(scenario, field.name)
        pars[field.name] = value.name if field.name == "access" else value
    removed = set(scenario.removed_dcs)
    plan = [pair for pair in GOOGLE_DC_PLAN if pair[0] not in removed]
    plan.extend(scenario.extra_dcs)
    sets = {
        "subnet": [
            (s.name, s.client_share, s.divergent_resolver) for s in scenario.subnets
        ],
        "detour": list(scenario.detour_pins),
        "datacenter": plan,
    }
    return ScenarioInfo(sets=sets, pars=pars)
