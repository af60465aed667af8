"""Evolving worlds: a schedule of scenario deltas at epoch boundaries.

The longitudinal complement of the paper's one-week snapshot: an
:class:`EvolutionPlan` names the deltas — mappings of
:class:`~repro.sim.specs.ScenarioSpec` field → value, plus the
``"policy"`` key — that take effect at given epoch indices: a data
center appears, the preferred mapping flips, capacity shrinks, the
selection policy switches mid-run.  Applying the plan epoch by epoch
yields a multi-week world that *changes underneath the monitor*, and
the plan itself doubles as ground truth: :meth:`EvolutionPlan.change_epochs`
is exactly the set of epochs where :mod:`repro.monitor.detect` should
raise an alarm.

A plan file is the :meth:`EvolutionPlan.to_json_dict` form::

    {"steps": [{"epoch": 2,
                "changes": {"extra_dcs": [["Turin", 64]],
                            "preferred_override": "dc-turin"},
                "label": "datacenter added"}]}
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.spec.model import SpecError, coerce_par


@dataclass(frozen=True)
class EvolutionStep:
    """One scheduled change: a delta in force from ``epoch`` onward.

    Attributes:
        epoch: First epoch index the delta applies to.  Must be >= 1 —
            a change at epoch 0 has no "before" to detect against.
        changes: Field → value assignments (and the optional
            ``"policy"``), in their JSON form.  Must be non-empty (an
            identity step would be unobservable ground truth).
        label: Optional human label for timelines and reports.
    """

    epoch: int
    changes: Mapping[str, Any]
    label: str = ""

    def __post_init__(self) -> None:
        if self.epoch < 1:
            raise SpecError("evolution steps must schedule at epoch >= 1")
        if not self.changes:
            raise SpecError(
                f"evolution step at epoch {self.epoch} is empty: an identity "
                "delta cannot be detected and must not be scheduled"
            )
        for name, value in self.changes.items():
            coerce_par(name, value)

    def to_json_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {"epoch": self.epoch, "changes": dict(self.changes)}
        if self.label:
            doc["label"] = self.label
        return doc

    @classmethod
    def from_json_dict(cls, document: Mapping[str, Any]) -> "EvolutionStep":
        if not isinstance(document, Mapping):
            raise SpecError("an evolution step must be a mapping")
        unknown = set(document) - {"epoch", "changes", "label"}
        if unknown:
            raise SpecError(f"unknown EvolutionStep keys: {sorted(unknown)}")
        epoch = document.get("epoch")
        if not isinstance(epoch, int) or isinstance(epoch, bool):
            raise SpecError(f"step epoch must be an int, got {epoch!r}")
        changes = document.get("changes") or {}
        if not isinstance(changes, Mapping):
            raise SpecError(f"step changes must be a mapping, got {changes!r}")
        return cls(epoch=epoch, changes=dict(changes), label=str(document.get("label", "")))


@dataclass(frozen=True)
class EvolutionPlan:
    """A schedule of deltas applied cumulatively at epoch boundaries.

    Steps are kept sorted by epoch; several steps may share an epoch (they
    merge in schedule order).  The plan is *cumulative*: the delta in
    force at epoch ``e`` merges every step scheduled at or before ``e``
    (:meth:`spec_at`), a later step's value for a field winning.

    Attributes:
        steps: The schedule, sorted by ``(epoch, schedule order)``.
    """

    steps: Tuple[EvolutionStep, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(self.steps, key=lambda s: s.epoch)
        )  # stable: same-epoch steps keep schedule order
        object.__setattr__(self, "steps", ordered)

    @property
    def is_static(self) -> bool:
        """True for the empty plan (the world never changes)."""
        return not self.steps

    def spec_at(self, epoch: int) -> Dict[str, Any]:
        """The merged delta in force at one epoch."""
        merged: Dict[str, Any] = {}
        for step in self.steps:
            if step.epoch <= epoch:
                merged.update(step.changes)
        return merged

    def change_epochs(self, epochs: Optional[int] = None) -> Tuple[int, ...]:
        """Ground-truth alarm epochs: distinct epochs where a step lands.

        Args:
            epochs: When given, only epochs in ``[1, epochs)`` — changes
                scheduled past the monitored horizon are not detectable
                and are excluded from scoring.
        """
        seen = []
        for step in self.steps:
            if epochs is not None and step.epoch >= epochs:
                continue
            if step.epoch not in seen:
                seen.append(step.epoch)
        return tuple(sorted(seen))

    def labels_at(self, epoch: int) -> Tuple[str, ...]:
        """Labels of the steps scheduled exactly at one epoch."""
        return tuple(
            step.label or json.dumps(dict(step.changes), sort_keys=True)
            for step in self.steps
            if step.epoch == epoch
        )

    # ---------------------------------------------------------------- codecs
    def to_json_dict(self) -> Dict[str, Any]:
        return {"steps": [step.to_json_dict() for step in self.steps]}

    def to_json(self, indent: Optional[int] = None) -> str:
        """Canonical JSON text: key-sorted, stable across processes."""
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json_dict(cls, document: Mapping[str, Any]) -> "EvolutionPlan":
        if not isinstance(document, Mapping):
            raise SpecError("an evolution plan must be a mapping")
        unknown = set(document) - {"steps"}
        if unknown:
            raise SpecError(f"unknown EvolutionPlan keys: {sorted(unknown)}")
        steps = document.get("steps", [])
        if not isinstance(steps, (list, tuple)):
            raise SpecError("EvolutionPlan steps must be a list")
        return cls(steps=tuple(EvolutionStep.from_json_dict(s) for s in steps))

    @classmethod
    def from_json(cls, text: str) -> "EvolutionPlan":
        try:
            document = json.loads(text)
        except json.JSONDecodeError as error:
            raise SpecError(f"malformed evolution JSON: {error}") from None
        return cls.from_json_dict(document)


#: The static plan: no scheduled changes, zero ground-truth alarms.
STATIC_PLAN = EvolutionPlan()


def load_evolution(path: str) -> EvolutionPlan:
    """Load an evolution plan from a JSON file.

    Raises:
        SpecError: For malformed documents.
        OSError: For unreadable paths.
    """
    with open(path, "r", encoding="utf-8") as handle:
        return EvolutionPlan.from_json(handle.read())


def standard_evolution() -> EvolutionPlan:
    """The canned demo schedule: three detectable CDN changes.

    Designed against the EU1 bases (vantage in Turin, preferred
    ``dc-milan``): a new data center appears next door and takes over
    the preferred role (epoch 2), operations then flips the preferred
    mapping to Frankfurt (epoch 4), and finally the selection policy
    switches to size-proportional spreading mid-run (epoch 6).  Each
    change migrates the bulk of the traffic between server /24 groups,
    so every step is detectable at small scales — and each leaves the
    scenario *unambiguous* (no two sites tied for the preferred rank),
    so epochs between changes differ only by sampling noise.
    """
    return EvolutionPlan(
        steps=(
            EvolutionStep(
                epoch=2,
                changes={
                    "extra_dcs": [["Turin", 64]],
                    "preferred_override": "dc-turin",
                },
                label="datacenter added (Turin, 64 servers) and mapped preferred",
            ),
            EvolutionStep(
                epoch=4,
                changes={"preferred_override": "dc-frankfurt"},
                label="preferred mapping flipped to dc-frankfurt",
            ),
            EvolutionStep(
                epoch=6,
                changes={"policy": "proportional"},
                label="selection policy switched to proportional",
            ),
        )
    )
