"""Longitudinal CDN-change monitoring (`repro monitor`).

The YouLighter workload over the reproduced CDN: a multi-week world
evolves under an :class:`~repro.monitor.evolution.EvolutionPlan` of
scenario deltas (field → value mappings) at epoch boundaries; each epoch streams into a bounded
edge-cloud :class:`~repro.monitor.snapshot.EpochSnapshot`; snapshots
are clustered (:mod:`repro.monitor.cluster`) and consecutive epochs
compared with a pattern-dissimilarity distance whose threshold
crossings raise change-point alarms (:mod:`repro.monitor.detect`),
scored against the plan's ground truth.  The driver
(:func:`~repro.monitor.run.run_monitor`) fans epochs out over the
executor and caches each under an epoch-keyed ``"monitor/epoch"``
stage, so warm re-runs only simulate newly appended epochs.

See docs/architecture.md ("Longitudinal monitoring") for the snapshot
definition, the dissimilarity metric, alarm semantics, and how CDN
changes are kept distinguishable from fault-plan degradation.
"""
