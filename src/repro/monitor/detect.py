"""Pattern dissimilarity, change-point alarms, and ground-truth scoring.

The detector compares consecutive epochs' clustered snapshots with a
bounded pattern-dissimilarity distance and alarms when it crosses a
threshold.  The distance has two terms:

* **Volume migration** — total-variation distance between the two
  epochs' per-prefix byte-share distributions.  Mass that moved between
  server /24 groups (a drained data center, a flipped preferred
  mapping, a policy switch) lands here, at full weight.
* **RTT drift** — every prefix probed in *both* epochs contributes the
  byte share it kept (the smaller of its two shares) times the
  normalised shift of its RTT.  The same addresses answering from a
  different network distance — a migration YouLighter's clustering is
  built to catch — lands here even when volumes barely move.

Both terms are built to *shrink*, never grow, under probe degradation:
probes never touch the migration term, and a lost probe only removes
its prefix's non-negative summand from the drift term.  The drift is
deliberately per prefix rather than per matched edge-cloud: a lost
probe re-clusters its epoch (it can split a cloud in two), which would
re-pair the remaining clouds and move their centroids, and either can
*add* distance.  That is the change-vs-degradation disambiguation the
fault-plan confusion test pins: a static world under a nonzero
:class:`~repro.faults.plan.FaultPlan` must stay alarm-free.

Scoring closes the loop: alarms are compared against the
:class:`~repro.monitor.evolution.EvolutionPlan`'s scheduled change
epochs, yielding precision/recall/F1 plus the hit/miss/false-alarm
breakdown the CI gate asserts on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.monitor.cluster import ClusteredSnapshot

#: Per-prefix RTT shift (ms) that counts as a full migration of the
#: prefix's kept mass; smaller shifts contribute proportionally.
DEFAULT_RTT_SCALE_MS = 50.0


def pattern_dissimilarity(
    a: ClusteredSnapshot,
    b: ClusteredSnapshot,
    rtt_scale_ms: float = DEFAULT_RTT_SCALE_MS,
) -> float:
    """Bounded distance in ``[0, 1]`` between two clustered snapshots.

    Zero for identical traffic patterns; 1 for complete migration.
    Symmetric, exactly 0 when both epochs put identical shares on
    identical prefixes with identical RTTs, and never larger after a
    probe is lost in either epoch.

    Args:
        a: Earlier epoch.
        b: Later epoch.
        rtt_scale_ms: RTT shift treated as a full migration.
    """
    shares_a = a.prefix_shares()
    shares_b = b.prefix_shares()
    prefixes = set(shares_a) | set(shares_b)
    migration = 0.5 * sum(
        abs(shares_a.get(p, 0.0) - shares_b.get(p, 0.0)) for p in prefixes
    )

    rtt_a = dict(a.snapshot.rtt_ms)
    rtt_b = dict(b.snapshot.rtt_ms)
    # Sorted, so the float sum is order-identical in both directions.
    probed_both = sorted(shares_a.keys() & shares_b.keys() & rtt_a.keys() & rtt_b.keys())
    drift = sum(
        min(shares_a[p], shares_b[p])
        * min(1.0, abs(rtt_a[p] - rtt_b[p]) / rtt_scale_ms)
        for p in probed_both
    )
    return min(1.0, migration + drift)


def consecutive_distances(
    clustered: Sequence[ClusteredSnapshot],
    rtt_scale_ms: float = DEFAULT_RTT_SCALE_MS,
) -> List[float]:
    """``distances[i]`` = dissimilarity between epochs ``i`` and ``i+1``."""
    return [
        pattern_dissimilarity(clustered[i], clustered[i + 1], rtt_scale_ms)
        for i in range(len(clustered) - 1)
    ]


@dataclass(frozen=True)
class Alarm:
    """One change-point alarm.

    Attributes:
        epoch: The epoch whose snapshot first shows the new pattern.
        distance: The dissimilarity that crossed the threshold.
    """

    epoch: int
    distance: float


def detect_alarms(distances: Sequence[float], threshold: float) -> List[Alarm]:
    """Threshold the consecutive-epoch distances into alarms.

    ``distances[i]`` compares epochs ``i`` and ``i+1``, so an alarm on it
    points at epoch ``i + 1`` — the first epoch under the new pattern,
    which is exactly how :class:`~repro.monitor.evolution.EvolutionStep`
    epochs are defined.

    Raises:
        ValueError: For a threshold that is not positive (zero would
            alarm on any sampling noise, and no distance reaches NaN).
    """
    if not threshold > 0.0:
        raise ValueError(f"threshold must be positive, got {threshold!r}")
    return [
        Alarm(epoch=i + 1, distance=distance)
        for i, distance in enumerate(distances)
        if distance >= threshold
    ]


@dataclass(frozen=True)
class DetectionScore:
    """Alarms scored against ground-truth change epochs.

    Attributes:
        hits: Alarm epochs that match a scheduled change.
        misses: Scheduled changes no alarm fired for.
        false_alarms: Alarm epochs with no scheduled change.
        precision: ``hits / alarms`` (1.0 with no alarms).
        recall: ``hits / truth`` (1.0 with no scheduled changes).
        f1: Harmonic mean of precision and recall.
    """

    hits: Tuple[int, ...]
    misses: Tuple[int, ...]
    false_alarms: Tuple[int, ...]
    precision: float
    recall: float
    f1: float

    def as_dict(self) -> Dict:
        return {
            "hits": list(self.hits),
            "misses": list(self.misses),
            "false_alarms": list(self.false_alarms),
            "precision": round(self.precision, 6),
            "recall": round(self.recall, 6),
            "f1": round(self.f1, 6),
        }


def score_detection(
    alarm_epochs: Sequence[int], truth_epochs: Sequence[int]
) -> DetectionScore:
    """Score alarms against the evolution plan's scheduled epochs.

    An alarm is a hit iff a change was scheduled at exactly its epoch —
    detecting the right event one epoch late still counts as a miss plus
    a false alarm, which is the strictness the CI gate wants.
    """
    alarms = sorted(set(alarm_epochs))
    truth = sorted(set(truth_epochs))
    hits = tuple(e for e in alarms if e in truth)
    misses = tuple(e for e in truth if e not in alarms)
    false_alarms = tuple(e for e in alarms if e not in truth)
    precision = len(hits) / len(alarms) if alarms else 1.0
    recall = len(hits) / len(truth) if truth else 1.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall > 0.0
        else 0.0
    )
    return DetectionScore(
        hits=hits,
        misses=misses,
        false_alarms=false_alarms,
        precision=precision,
        recall=recall,
        f1=f1,
    )
