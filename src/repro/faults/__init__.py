"""Deterministic fault injection, retries, and degradation reporting.

The paper's pipeline tolerates partial failure everywhere — lost
PlanetLab probes, dropped Tstat flows, timed-out DNS answers — so the
reproduction must too.  This package makes that testable:

* :mod:`repro.faults.plan` — :class:`FaultPlan`, a seeded chaos
  configuration whose every injection decision is a pure function of
  ``(seed, site labels)``; carried by ``--faults`` / ``REPRO_FAULTS``.
* :mod:`repro.faults.retry` — the transient-fault exception taxonomy
  and :data:`~repro.faults.retry.MAX_ATTEMPTS`: a failed attempt is made
  again at once, never after a wait, because the plan (not the clock)
  decides every fault.
* :mod:`repro.faults.report` — per-stage degradation counters on the
  run's metrics, read back as a :class:`DegradationReport` (stages
  completed / retried / degraded / skipped).

Injection is wired into the executor (task transients and worker
crashes), RTT campaigns and CBG probing (probe loss and timeouts), the
artifact store (corrupt objects, quarantined and recomputed), and
flow-log ingestion (garbled lines, skipped and counted).  An active plan
is folded into every artifact-cache key, so faulted runs never share
artifacts with clean ones; an all-zero plan is inert and byte-identical
to no plan at all.
"""
