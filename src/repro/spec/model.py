""":class:`Spec`: a require/remove/add delta over a scenario, and its
application, composition and diff operators.

The pattern follows message-ix-models' ``ScenarioInfo``/``Spec``/
``apply_spec`` trio: a spec is three :class:`~repro.spec.info.ScenarioInfo`
objects —

- **require** — sets/pars the base world must already have (validation,
  not mutation).  A violation raises :class:`~repro.spec.info.SpecError`:
  the spec is incompatible with that base.
- **remove** — set elements deleted from the base.  Removing an element
  the base does not have is an error for the same reason.
- **add** — set elements added to the base, and par assignments.

Applying a spec never mutates anything: :func:`apply_to_scenario` returns
a fresh :class:`~repro.sim.scenarios.ScenarioSpec` (plus the selection
policy), which :func:`~repro.sim.scenarios.build_world` turns into a
runnable :class:`~repro.sim.scenarios.ScenarioWorld`.

Specs compose (:meth:`Spec.compose` — apply ``b`` after ``a`` as one
spec; associative for disjoint deltas) and diff (:func:`diff` — the spec
turning world ``a`` into world ``b``), and serialise canonically to JSON,
which makes a scenario grid a reviewable, diffable artifact.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field as dc_field
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

from repro.spec.info import (
    SET_ARITY,
    SET_NAMES,
    ScenarioInfo,
    SpecError,
    canonical_text,
    describe,
)

def policy_kinds() -> Tuple[str, ...]:
    """Selection-policy kinds :func:`repro.sim.scenarios.build_world` accepts.

    Delegates to the policy registry
    (:func:`repro.cdn.selection.registered_policy_kinds`, imported lazily
    to keep the spec layer import-light), so registering a policy makes
    it a valid ``"policy"`` par and grid-axis value with no spec-layer
    change.
    """
    from repro.cdn.selection import registered_policy_kinds

    return registered_policy_kinds()

#: ScenarioSpec fields that are set-backed (not assignable as pars).
_SET_BACKED_FIELDS = frozenset({"subnets", "detour_pins", "extra_dcs", "removed_dcs"})


def _par_field_types():
    """Mapping of assignable par name -> coercion callable."""
    from repro.net.latency import AccessTechnology
    from repro.sim.scenarios import ScenarioSpec

    def coerce_access(value):
        if isinstance(value, AccessTechnology):
            return value
        try:
            return AccessTechnology[str(value)]
        except KeyError:
            raise SpecError(
                f"unknown access technology {value!r}; expected one of "
                f"{[m.name for m in AccessTechnology]}"
            ) from None

    def coerce_int(value):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SpecError(f"expected an integer, got {value!r}")
        if isinstance(value, float):
            if not value.is_integer():
                raise SpecError(f"expected an integer, got {value!r}")
            value = int(value)
        return value

    def coerce_float(value):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SpecError(f"expected a number, got {value!r}")
        return float(value)

    def coerce_bool(value):
        if not isinstance(value, bool):
            raise SpecError(f"expected a boolean, got {value!r}")
        return value

    def coerce_str(value):
        if not isinstance(value, str):
            raise SpecError(f"expected a string, got {value!r}")
        return value

    table = {}
    for field in dataclasses.fields(ScenarioSpec):
        if field.name in _SET_BACKED_FIELDS:
            continue
        annotation = str(field.type)
        if "AccessTechnology" in annotation:
            coerce = coerce_access
        elif "bool" in annotation:
            coerce = coerce_bool
        elif "int" in annotation:
            coerce = coerce_int
        elif "float" in annotation:
            coerce = coerce_float
        else:
            coerce = coerce_str
        optional = "Optional" in annotation
        table[field.name] = (coerce, optional)
    return table


def coerce_par(name: str, value: Any) -> Any:
    """Coerce a par value to its :class:`ScenarioSpec` field type.

    ``"policy"`` is the one par with no backing field: it selects the
    world's :func:`~repro.sim.scenarios.build_world` ``policy_kind``.

    Raises:
        SpecError: For unknown par names or untypeable values.
    """
    if name == "policy":
        kinds = policy_kinds()
        if value not in kinds:
            raise SpecError(
                f"unknown policy {value!r}; registered policies: "
                f"{', '.join(kinds)}"
            )
        return value
    table = _par_field_types()
    if name not in table:
        raise SpecError(
            f"unknown par {name!r}; expected 'policy' or a scalar "
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


@dataclass(frozen=True)
class Spec:
    """A require/remove/add delta over a scenario world.

    Attributes:
        require: Sets/pars the base must already have (checked, not applied).
        remove: Set elements removed from the base.
        add: Set elements added and pars assigned.
    """

    require: ScenarioInfo = dc_field(default_factory=ScenarioInfo)
    remove: ScenarioInfo = dc_field(default_factory=ScenarioInfo)
    add: ScenarioInfo = dc_field(default_factory=ScenarioInfo)

    def __post_init__(self):
        for part_name in ("require", "remove", "add"):
            part = getattr(self, part_name)
            if not isinstance(part, ScenarioInfo):
                raise SpecError(
                    f"Spec.{part_name} must be a ScenarioInfo, "
                    f"got {type(part).__name__!r}"
                )
            for set_name, elements in part.sets:
                if set_name not in SET_NAMES:
                    raise SpecError(
                        f"unknown set {set_name!r}; expected one of {SET_NAMES}"
                    )
                arity = SET_ARITY[set_name]
                for element in elements:
                    if not isinstance(element, tuple) or len(element) != arity:
                        raise SpecError(
                            f"{set_name!r} elements must be {arity}-tuples, "
                            f"got {element!r}"
                        )
        if self.remove.pars:
            raise SpecError(
                "Spec.remove carries pars; par changes belong in Spec.add "
                "(pars are total — there is nothing to remove)"
            )
        for name, value in self.add.pars + self.require.pars:
            coerce_par(name, value)

    @property
    def is_empty(self) -> bool:
        """True for the identity spec (applies as a no-op)."""
        return self.require.is_empty and self.remove.is_empty and self.add.is_empty

    # ---------------------------------------------------------- composition
    def compose(self, other: "Spec") -> "Spec":
        """One spec equivalent to applying ``self`` then ``other``.

        Elements ``other`` removes that ``self`` added simply cancel;
        requirements ``other`` has that ``self`` provides are discharged.
        For deltas over disjoint sets/pars, composition is associative:
        ``a.compose(b).compose(c) == a.compose(b.compose(c))``.

        Raises:
            SpecError: If ``other`` requires a par value ``self`` assigns
                differently (the composition can never apply).
        """
        self_add_pars = self.add.pars_dict
        for name, value in other.require.pars:
            if name in self_add_pars and self_add_pars[name] != value:
                raise SpecError(
                    f"cannot compose: the second spec requires "
                    f"{name}={value!r} but the first assigns "
                    f"{self_add_pars[name]!r}"
                )
        require = self.require.merge(
            other.require.without_elements(self.add).without_pars(self_add_pars)
        )
        remove = self.remove.merge(other.remove.without_elements(self.add))
        add = self.add.without_elements(other.remove).merge(other.add)
        return Spec(require=require, remove=remove, add=add)

    # ------------------------------------------------------------- identity
    def cache_fingerprint(self) -> Dict[str, Any]:
        """Canonical identity — hooks into
        :func:`repro.artifacts.keys.canonicalize`, so a spec (or a grid of
        them) can be part of any :func:`~repro.artifacts.keys.stage_key`.
        """
        return {
            "require": self.require.cache_fingerprint(),
            "remove": self.remove.cache_fingerprint(),
            "add": self.add.cache_fingerprint(),
        }

    # ---------------------------------------------------------------- codecs
    def to_json_dict(self) -> Dict[str, Any]:
        """JSON-native form (empty parts omitted)."""
        document: Dict[str, Any] = {}
        for part_name in ("require", "remove", "add"):
            part = getattr(self, part_name)
            if not part.is_empty:
                document[part_name] = part.to_json_dict()
        return document

    def to_json(self, indent: Optional[int] = None) -> str:
        """Canonical JSON text: key-sorted, stable across processes."""
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json_dict(cls, document: Mapping[str, Any]) -> "Spec":
        """Parse the :meth:`to_json_dict` form.

        Raises:
            SpecError: For unknown keys or malformed parts.
        """
        if not isinstance(document, Mapping):
            raise SpecError("a spec document must be a mapping")
        unknown = set(document) - {"require", "remove", "add"}
        if unknown:
            raise SpecError(f"unknown Spec keys: {sorted(unknown)}")
        parts = {
            name: ScenarioInfo.from_json_dict(document.get(name) or {})
            for name in ("require", "remove", "add")
        }
        return cls(**parts)

    @classmethod
    def from_json(cls, text: str) -> "Spec":
        """Parse canonical (or any) JSON text of a spec."""
        try:
            document = json.loads(text)
        except json.JSONDecodeError as error:
            raise SpecError(f"malformed spec JSON: {error}") from None
        return cls.from_json_dict(document)


#: The identity spec.
EMPTY_SPEC = Spec()


def par_delta(**pars: Any) -> Spec:
    """A pure par-assignment spec (the common variant/grid delta)."""
    return Spec(add=ScenarioInfo(pars=pars))


def compose_all(specs: Iterable[Spec]) -> Spec:
    """Fold an ordered sequence of specs into one left-to-right composition.

    ``compose_all([a, b, c])`` is ``a.compose(b).compose(c)`` — the spec
    equivalent to applying ``a``, then ``b``, then ``c``.  An empty
    sequence yields :data:`EMPTY_SPEC`.  The workhorse behind
    :class:`repro.monitor.evolution.EvolutionPlan`, which accretes epoch
    deltas into the scenario in force at a given epoch.

    Raises:
        SpecError: If any pairwise composition is contradictory (see
            :meth:`Spec.compose`).
    """
    composed = EMPTY_SPEC
    for spec in specs:
        composed = composed.compose(spec)
    return composed


# --------------------------------------------------------------------- diff
def diff(base: Any, target: Any) -> Spec:
    """The spec that turns world ``base`` into world ``target``.

    Both arguments may be :class:`~repro.sim.scenarios.ScenarioSpec`
    objects (described with the default policy) or pre-built
    :class:`~repro.spec.info.ScenarioInfo` views.  The result satisfies
    ``apply(base, diff(base, target)) == target`` for any two describable
    worlds; its require part is empty (a diff states facts, not
    preconditions).

    Pars present in ``base`` but absent from ``target`` are ignored — a
    par is total on any described world, so a *partial* target info diffs
    only the pars it mentions.
    """
    base_info = base if isinstance(base, ScenarioInfo) else describe(base)
    target_info = target if isinstance(target, ScenarioInfo) else describe(target)
    remove_sets: Dict[str, list] = {}
    add_sets: Dict[str, list] = {}
    names = {name for name, _ in base_info.sets} | {name for name, _ in target_info.sets}
    for name in sorted(names):
        have = {canonical_text(e): e for e in base_info.set(name)}
        want = {canonical_text(e): e for e in target_info.set(name)}
        gone = [have[text] for text in sorted(have.keys() - want.keys())]
        new = [want[text] for text in sorted(want.keys() - have.keys())]
        if gone:
            remove_sets[name] = gone
        if new:
            add_sets[name] = new
    base_pars = base_info.pars_dict
    add_pars = {
        name: value
        for name, value in target_info.pars
        if name not in base_pars or base_pars[name] != value
    }
    return Spec(
        remove=ScenarioInfo(sets=remove_sets),
        add=ScenarioInfo(sets=add_sets, pars=add_pars),
    )


# -------------------------------------------------------------- application
def _apply_datacenter_delta(base, removes, adds):
    """Fold datacenter-set deltas into (removed_dcs, extra_dcs) fields."""
    from repro.sim.scenarios import GOOGLE_DC_PLAN

    removed = set(base.removed_dcs)
    extra = list(base.extra_dcs)
    effective = {
        canonical_text(pair)
        for pair in list(GOOGLE_DC_PLAN) + extra
        if pair[0] not in removed
    }
    for element in removes:
        text = canonical_text(element)
        if text not in effective:
            raise SpecError(
                f"cannot remove datacenter {element!r}: not in the base plan"
            )
        effective.discard(text)
        if element in extra:
            extra.remove(element)
        else:
            removed.add(element[0])
    for element in adds:
        text = canonical_text(element)
        if text in effective:
            raise SpecError(f"datacenter {element!r} is already in the plan")
        effective.add(text)
        if element[0] in removed and element in GOOGLE_DC_PLAN:
            removed.discard(element[0])
        else:
            extra.append(tuple(element))
    return (
        tuple(sorted(removed)),
        tuple(sorted(extra, key=canonical_text)),
    )


def apply_to_scenario(base, spec: Spec, base_policy: str = "preferred"):
    """Apply a spec to a scenario spec, yielding a new scenario + policy.

    The application order follows the snippet pattern: **require** is
    checked against the base's :func:`~repro.spec.info.describe` view,
    **remove** elements are deleted (each must exist), **add** elements
    are appended in canonical order after the base's retained elements,
    and **add** pars are assigned.  Sets a spec does not touch are left
    exactly as the base had them, so the empty spec is the identity.

    Args:
        base: The base :class:`~repro.sim.scenarios.ScenarioSpec`.
        spec: The delta to apply.
        base_policy: Policy kind the base is considered built with (the
            ``"policy"`` par starts from this value).

    Returns:
        ``(scenario, policy_kind)`` — a fresh
        :class:`~repro.sim.scenarios.ScenarioSpec` and the selection
        policy for :func:`~repro.sim.scenarios.build_world`.

    Raises:
        SpecError: On require violations, removes of absent elements,
            duplicate adds, or unknown/untypeable pars.
    """
    from repro.sim.scenarios import SubnetSpec

    base_info = describe(base, policy=base_policy)

    # ---- require: the spec must be compatible with this base -------------
    for name, elements in spec.require.sets:
        have = {canonical_text(e) for e in base_info.set(name)}
        missing = [e for e in elements if canonical_text(e) not in have]
        if missing:
            raise SpecError(
                f"spec requires {name} elements the base lacks: {missing}"
            )
    base_pars = base_info.pars_dict
    for name, value in spec.require.pars:
        actual = base_pars.get(name)
        if actual != coerce_par(name, value) and actual != value:
            raise SpecError(
                f"spec requires {name}={value!r} but the base has {actual!r}"
            )

    # ---- remove / add, set by set ----------------------------------------
    changes: Dict[str, Any] = {}
    touched = {name for name, _ in spec.remove.sets} | {
        name for name, _ in spec.add.sets
    }
    for name in sorted(touched):
        removes = spec.remove.set(name)
        adds = spec.add.set(name)
        if name == "datacenter":
            removed_dcs, extra_dcs = _apply_datacenter_delta(base, removes, adds)
            changes["removed_dcs"] = removed_dcs
            changes["extra_dcs"] = extra_dcs
            continue
        current = list(base_info.set(name))
        have = {canonical_text(e) for e in current}
        for element in removes:
            text = canonical_text(element)
            if text not in have:
                raise SpecError(
                    f"cannot remove {name} element {element!r}: "
                    f"not present in the base"
                )
            have.discard(text)
            current = [e for e in current if canonical_text(e) != text]
        for element in adds:
            text = canonical_text(element)
            if text in have:
                raise SpecError(
                    f"{name} element {element!r} is already present in the base"
                )
            have.add(text)
            current.append(element)
        if name == "subnet":
            changes["subnets"] = tuple(
                SubnetSpec(
                    name=str(e[0]),
                    client_share=float(e[1]),
                    divergent_resolver=bool(e[2]),
                )
                for e in current
            )
        elif name == "detour":
            changes["detour_pins"] = tuple(
                (str(e[0]), float(e[1])) for e in current
            )

    # ---- pars -------------------------------------------------------------
    policy = base_policy
    for name, value in spec.add.pars:
        coerced = coerce_par(name, value)
        if name == "policy":
            policy = coerced
        else:
            changes[name] = coerced

    scenario = dataclasses.replace(base, **changes) if changes else base
    return scenario, policy
