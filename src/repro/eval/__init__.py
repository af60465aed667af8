"""Ground-truth evaluation of the blind measurement methodology.

:mod:`repro.core` is the paper's side of the firewall: it sees only what
a passive monitor could see.  :mod:`repro.eval` is the examiner's side —
it reads the simulator's per-request ground truth
(:class:`repro.sim.week.GroundTruthLog`) and grades the blind
pipeline's verdicts against it, per selection policy.  Like
:mod:`repro.core.validation`, it crosses the firewall on purpose, and
nothing in :mod:`repro.core` depends on it.
"""
