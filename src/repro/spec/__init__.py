"""Declarative scenario specs, composition, and grid enumeration.

The subsystem has four layers:

- :mod:`repro.spec.info` — :class:`ScenarioInfo`, the immutable sets/pars
  description of a scenario world, and :func:`describe`.
- :mod:`repro.spec.model` — :class:`Spec` (require/remove/add deltas),
  :func:`apply_to_scenario`, :func:`diff`, composition, JSON codecs.
- :mod:`repro.spec.registry` — the paper's datasets as named specs.
- :mod:`repro.spec.grid` / :mod:`repro.spec.runner` — :class:`GridSpec`
  axis enumeration and cached, parallel grid execution.
"""
