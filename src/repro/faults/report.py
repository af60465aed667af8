"""Per-stage degradation accounting for faulted runs.

When a :class:`~repro.faults.plan.FaultPlan` is in force, every layer
that absorbs a fault records what it absorbed here — campaigns count lost
probes, the executor counts retried tasks, the artifact store counts
quarantined objects, log ingestion counts skipped lines — and the run
ends with one :class:`DegradationReport`: per stage, how much completed,
how much was retried, how much degraded, how much was skipped.

Each event is one counter of the current run's
:class:`~repro.obs.metrics.MetricsRegistry`,
``degradation.<counter>{stage=<stage>}``, and the report is read back
from those counters, so a traced run's metrics footer carries the same
rows.  :func:`record` writes to the run's registry itself, not through
:func:`repro.obs.inc`: it records with ``REPRO_TRACE=off`` too, and only
while a plan is installed, so clean runs pay nothing.  ``obs.new_run()``
starts every run's counters at zero.  A task that ran in a pool worker
records into a run of its own, whose counters travel back with the
task's outcome and merge once into the dispatcher's run
(:mod:`repro.exec.executor`), so a pooled run reports what an
in-process one does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.faults.plan import current_plan
from repro.obs.runctx import current_run

#: Counter keys with dedicated meaning, in reporting order.  Stages may
#: record additional ad-hoc counters; they sort after these.
CORE_COUNTERS = ("completed", "retried", "degraded", "skipped")

#: Metric-name prefix of every degradation counter.
_PREFIX = "degradation."


def record(stage: str, **counts: int) -> None:
    """Count one stage's degradation on the run's metrics (no-op without a plan).

    Args:
        stage: Stage name, namespaced like ``"geoloc/campaign"``.
        counts: Counter increments, e.g. ``completed=1, probes_lost=3``.
    """
    if current_plan() is None:
        return
    metrics = current_run().metrics
    for name, delta in counts.items():
        if delta:
            metrics.inc(_PREFIX + name, int(delta), stage=stage)


def stage_completed(stage: str, degraded: bool = False) -> None:
    """Record one completed unit of a stage (optionally degraded)."""
    record(stage, completed=1, degraded=1 if degraded else 0)


@dataclass
class DegradationReport:
    """A snapshot of the run's per-stage degradation counters.

    Attributes:
        stages: Stage name → counter name → count.
    """

    stages: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @property
    def totals(self) -> Dict[str, int]:
        """Counters summed over every stage."""
        out: Dict[str, int] = {}
        for tally in self.stages.values():
            for name, count in tally.items():
                out[name] = out.get(name, 0) + count
        return out

    def total(self, counter: str) -> int:
        """One counter's total over every stage (0 when never recorded)."""
        return self.totals.get(counter, 0)

    @property
    def degraded(self) -> bool:
        """Whether anything beyond plain completion was recorded."""
        return any(
            count for tally in self.stages.values()
            for name, count in tally.items() if name != "completed"
        )

    def as_dict(self) -> Dict[str, Dict[str, int]]:
        """A JSON-ready view: sorted stages plus a ``TOTAL`` pseudo-stage."""
        doc = {
            stage: {k: self.stages[stage][k] for k in sorted(self.stages[stage])}
            for stage in sorted(self.stages)
        }
        doc["TOTAL"] = {k: self.totals[k] for k in sorted(self.totals)}
        return doc


def collect() -> DegradationReport:
    """The report over every degradation counter of the current run."""
    stages: Dict[str, Dict[str, int]] = {}
    for (name, labels), count in current_run().metrics.counters.items():
        if name.startswith(_PREFIX):
            stages.setdefault(dict(labels)["stage"], {})[name[len(_PREFIX):]] = count
    return DegradationReport(stages=stages)
