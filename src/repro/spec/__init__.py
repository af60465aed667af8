"""Scenario deltas and grid enumeration.

- :mod:`repro.spec.model` — a delta is a mapping of
  :class:`~repro.sim.specs.ScenarioSpec` field → value (plus the
  ``"policy"`` key); :func:`~repro.spec.model.apply_to_scenario` is
  :func:`dataclasses.replace` over the coerced values.
- :mod:`repro.spec.grid` / :mod:`repro.spec.runner` — :class:`GridSpec`
  axis enumeration over a named scenario
  (:data:`~repro.sim.specs.NAMED_SCENARIOS`) and cached, parallel
  grid execution.
"""
