"""Grid enumeration: named axes × values → a lattice of scenario deltas.

A :class:`GridSpec` names a base scenario (a
:data:`~repro.sim.specs.NAMED_SCENARIOS` entry) and a tuple of
:class:`GridAxis` objects.  Enumeration takes the cartesian product of
the axis values (minus filtered combinations) and yields one
:class:`GridPoint` per combination — a label, the raw assignments, and
the delta against the base: the axis assignments merged in axis order.

Axis names select what an assignment contributes:

- ``"dataset"`` — values are scenario names; the axis switches the *base*
  scenario instead of contributing to the delta.
- ``"policy"`` — values are registered selection-policy kinds
  (:func:`repro.cdn.selection.registered_policy_kinds`; e.g.
  ``"preferred"``, ``"proportional"``, ``"geographic"``, ``"gwtw"``,
  ``"isp-te"``, ``"partition"``).
- ``"variant"`` — values are :mod:`repro.whatif.variants` names; the
  variant's delta is merged in.
- anything else — an assignable :class:`~repro.sim.specs.ScenarioSpec`
  field.

Point labels are ``"axis=value"`` clauses joined by commas, with values
rendered exactly as given.  A label names a row; it is not part of the
row's ``"whatif/metrics"`` artifact key, which holds only the point's
world.  So a what-if variant, a sweep point and a grid point that build
the same world share one warm row.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.spec.model import SpecError, coerce_par

_SCALARS = (bool, int, float, str)


@dataclass(frozen=True, init=False)
class GridAxis:
    """One named dimension of a grid.

    Attributes:
        name: Axis name (see the module docstring for the special names).
        values: The axis's values, in enumeration order.
    """

    name: str
    values: Tuple[Any, ...]

    def __init__(self, name: str, values: Iterable[Any]):
        if not isinstance(name, str) or not name:
            raise SpecError(f"axis names must be non-empty strings, got {name!r}")
        frozen = tuple(values)
        if not frozen:
            raise SpecError(f"axis {name!r} has no values")
        for value in frozen:
            if not isinstance(value, _SCALARS) and value is not None:
                raise SpecError(
                    f"axis {name!r} values must be scalars, got "
                    f"{type(value).__name__!r}"
                )
        # JSON text keeps 1, 1.0 and True apart, where a set would not.
        seen = {json.dumps(v) for v in frozen}
        if len(seen) != len(frozen):
            raise SpecError(f"axis {name!r} has duplicate values")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "values", frozen)


@dataclass(frozen=True)
class GridPoint:
    """One enumerated grid combination.

    Attributes:
        label: ``"axis=value,..."`` clauses in axis order (the name of
            the point's metric row).
        base: Name of the base scenario for this point.
        assignments: Raw ``(axis, value)`` pairs, in axis order.
        delta: Field → value assignments against ``base``, merged in
            axis order (the ``dataset`` axis switches ``base`` and
            contributes nothing here).
    """

    label: str
    base: str
    assignments: Tuple[Tuple[str, Any], ...]
    delta: Dict[str, Any]


@dataclass(frozen=True, init=False)
class GridSpec:
    """A base scenario crossed with named axes, minus filtered points.

    Attributes:
        base: Name of the default base scenario.
        axes: The grid's dimensions, in enumeration order.
        filters: Exclusion clauses: each filter is a tuple of
            ``(axis, value)`` pairs, and a point matching *every* pair of
            any filter is dropped from the enumeration.
    """

    base: str
    axes: Tuple[GridAxis, ...]
    filters: Tuple[Tuple[Tuple[str, Any], ...], ...]

    def __init__(
        self,
        base: str = "EU1-FTTH",
        axes: Iterable[GridAxis] = (),
        filters: Iterable[Iterable[Tuple[str, Any]]] = (),
    ):
        axes = tuple(axes)
        names = [axis.name for axis in axes]
        if len(set(names)) != len(names):
            raise SpecError(f"duplicate axis names in grid: {names}")
        for axis in axes:
            if not isinstance(axis, GridAxis):
                raise SpecError(
                    f"grid axes must be GridAxis objects, got "
                    f"{type(axis).__name__!r}"
                )
        frozen_filters = []
        for clause in filters:
            pairs = tuple((str(axis), value) for axis, value in clause)
            if not pairs:
                raise SpecError("empty grid filter (it would drop every point)")
            for axis, _value in pairs:
                if axis not in names:
                    raise SpecError(
                        f"filter references unknown axis {axis!r}; "
                        f"grid axes are {names}"
                    )
            frozen_filters.append(pairs)
        object.__setattr__(self, "base", str(base))
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "filters", tuple(frozen_filters))

    # ---------------------------------------------------------------- codecs
    def to_json_dict(self) -> Dict[str, Any]:
        """JSON-native form (``repro grid plan --out`` writes this)."""
        document: Dict[str, Any] = {
            "base": self.base,
            "axes": [
                {"name": axis.name, "values": list(axis.values)}
                for axis in self.axes
            ],
        }
        if self.filters:
            document["filters"] = [dict(clause) for clause in self.filters]
        return document

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Canonical JSON text of the grid."""
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json_dict(cls, document: Mapping[str, Any]) -> "GridSpec":
        """Parse the :meth:`to_json_dict` form.

        Raises:
            SpecError: For unknown keys or malformed axes/filters.
        """
        if not isinstance(document, Mapping):
            raise SpecError("a grid document must be a mapping")
        unknown = set(document) - {"base", "axes", "filters"}
        if unknown:
            raise SpecError(f"unknown GridSpec keys: {sorted(unknown)}")
        axes = []
        for entry in document.get("axes") or ():
            if not isinstance(entry, Mapping) or set(entry) - {"name", "values"}:
                raise SpecError(f"malformed grid axis {entry!r}")
            axes.append(GridAxis(entry.get("name"), entry.get("values") or ()))
        filters = []
        for clause in document.get("filters") or ():
            if not isinstance(clause, Mapping):
                raise SpecError(f"grid filters must be mappings, got {clause!r}")
            filters.append(tuple(sorted(clause.items())))
        return cls(base=document.get("base", "EU1-FTTH"), axes=axes,
                   filters=filters)

    @classmethod
    def from_json(cls, text: str) -> "GridSpec":
        """Parse JSON text of a grid."""
        try:
            document = json.loads(text)
        except json.JSONDecodeError as error:
            raise SpecError(f"malformed grid JSON: {error}") from None
        return cls.from_json_dict(document)


def load_grid(path: str) -> GridSpec:
    """Load a grid from a ``.json`` file (``repro grid run --grid``).

    Raises:
        SpecError: For malformed documents.
        OSError: If the file cannot be read.
    """
    with open(path, "r", encoding="utf-8") as handle:
        return GridSpec.from_json(handle.read())


def _axis_delta(axis: str, value: Any) -> Dict[str, Any]:
    """The assignments one (axis, value) pair contributes to a delta."""
    if axis == "variant":
        from repro.whatif.variants import variant_by_name

        try:
            return dict(variant_by_name(str(value)).changes)
        except KeyError as error:
            raise SpecError(f"grid variant axis: {error.args[0]}") from None
    coerce_par(axis, value)
    return {axis: value}


def enumerate_points(grid: GridSpec) -> Tuple[GridPoint, ...]:
    """Every grid point, in cartesian order, with filters applied.

    Returns:
        One :class:`GridPoint` per surviving combination; axis order is
        enumeration order (the last axis varies fastest).

    Raises:
        SpecError: For invalid axis values (unknown policies, variants,
            or ScenarioSpec fields) or a grid whose filters drop
            everything.  A grid with no axes enumerates one bare-base
            point.
        KeyError: For ``dataset`` axis values (or a ``base``) that name no
            named scenario.
    """
    from repro.sim.specs import named_scenario

    named_scenario(grid.base)  # fail fast on an unknown base
    for axis in grid.axes:
        if axis.name == "dataset":
            for value in axis.values:
                named_scenario(str(value))
        elif axis.name != "variant":
            # Validate eagerly so a typo'd axis fails before any runs.
            for value in axis.values:
                _axis_delta(axis.name, value)
    filters = [dict(clause) for clause in grid.filters]

    points: List[GridPoint] = []
    value_grids = [axis.values for axis in grid.axes]
    for combination in itertools.product(*value_grids):
        assignments = tuple(
            (axis.name, value) for axis, value in zip(grid.axes, combination)
        )
        assigned = dict(assignments)
        if any(
            all(assigned.get(axis) == value for axis, value in clause.items())
            for clause in filters
        ):
            continue
        base = grid.base
        delta: Dict[str, Any] = {}
        for axis, value in assignments:
            if axis == "dataset":
                base = str(value)
            else:
                delta.update(_axis_delta(axis, value))
        label = ",".join(f"{axis}={value}" for axis, value in assignments)
        points.append(
            GridPoint(label=label, base=base, assignments=assignments, delta=delta)
        )
    if not points:
        raise SpecError("empty grid: the filters drop every point")
    return tuple(points)


def diff_grids(old: GridSpec, new: GridSpec) -> Dict[str, List[str]]:
    """Point-level difference between two grids, by label.

    Returns:
        ``{"added": [...], "removed": [...], "common": [...]}`` — labels
        sorted within each bucket.  This is exactly the cache story of an
        extended grid: ``added`` simulates, ``common`` re-reads.
    """
    old_points = {p.label for p in enumerate_points(old)}
    new_points = {p.label for p in enumerate_points(new)}
    return {
        "added": sorted(new_points - old_points),
        "removed": sorted(old_points - new_points),
        "common": sorted(old_points & new_points),
    }
