"""The monitor driver: epoch fan-out, epoch-keyed caching, detection.

``run_monitor`` turns an (base scenario, :class:`EvolutionPlan`) pair
into a :class:`MonitorReport`: each epoch applies the plan's merged
delta in force to the base, builds that epoch's world (physical topology
pinned on the master seed, workload re-sampled from a per-epoch traffic
seed), streams it into an :class:`~repro.monitor.snapshot.EpochSnapshot`, clusters it,
and the consecutive-epoch dissimilarities are thresholded into alarms
scored against the plan's ground truth.

Epochs are independent units of work: they fan out
(:func:`~repro.exec.executor.fan_out`; results are identical in a pool
or in-process) and each resolves against the artifact store first
under an epoch-keyed ``"monitor/epoch"`` stage, keyed by the applied
scenario and policy (the world the epoch builds), not by the delta that
produced them — a warm re-run with ``--epochs`` extended simulates only
the appended epochs, exactly like a daily monitoring job that only ever
processes the newest epoch.

Per-epoch degradation is captured *inside* the epoch's unit of work and
stored with the snapshot, so the timeline can show which epochs were
degraded (and by how much) even when they were computed in a pool
worker or served from the cache — fixing the "degradation report only
at the end of the run" blind spot for multi-epoch runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro import obs
from repro.artifacts.memo import memoized_stage
from repro.defaults import DEFAULT_EPOCH_S, DEFAULT_EPOCHS, DEFAULT_THRESHOLD
from repro.faults import report as degradation
from repro.monitor.cluster import (
    DEFAULT_RTT_GAP_MS,
    ClusteredSnapshot,
    cluster_snapshot,
)
from repro.monitor.detect import (
    DEFAULT_RTT_SCALE_MS,
    Alarm,
    DetectionScore,
    consecutive_distances,
    detect_alarms,
    score_detection,
)
from repro.monitor.evolution import STATIC_PLAN, EvolutionPlan
from repro.monitor.snapshot import EpochSnapshot, build_epoch_snapshot
from repro.sim.scenarios import build_world
from repro.sim.specs import ScenarioSpec, named_scenario
from repro.sim.seeding import derive_seed
from repro.spec.model import apply_to_scenario


@dataclass(frozen=True)
class EpochComputation:
    """What one epoch's unit of work produces (and the cache stores).

    Attributes:
        snapshot: The epoch's edge-cloud snapshot.
        degradation: Per-stage degradation counters recorded while this
            epoch was computed (empty without an active fault plan).
    """

    snapshot: EpochSnapshot
    degradation: Dict[str, Dict[str, int]] = field(default_factory=dict)


def _degradation_delta(
    before: Dict[str, Dict[str, int]], after: Dict[str, Dict[str, int]]
) -> Dict[str, Dict[str, int]]:
    """Per-stage counter increments between two degradation reports."""
    delta: Dict[str, Dict[str, int]] = {}
    for stage, tally in after.items():
        base = before.get(stage, {})
        changed = {
            name: count - base.get(name, 0)
            for name, count in tally.items()
            if count - base.get(name, 0)
        }
        if changed:
            delta[stage] = changed
    return delta


@memoized_stage("monitor/epoch")
def monitor_epoch(
    scenario: ScenarioSpec,
    policy: str,
    epoch: int,
    epoch_s: float,
    scale: float,
    seed: int,
    probes: int,
    prefix_len: int,
) -> EpochComputation:
    """Build, stream and snapshot one epoch (disk-memoized, epoch-keyed)."""
    before = degradation.collect().stages
    with obs.span("monitor/epoch", dataset=scenario.name, epoch=epoch):
        # The physical world (latency paths, catalog, client placement)
        # stays on the master seed: epochs must differ only by workload
        # sampling and by *scheduled* changes, never by re-rolled paths.
        world = build_world(
            scenario,
            scale=scale,
            seed=seed,
            duration_s=epoch_s,
            policy_kind=policy,
            traffic_seed=derive_seed(seed, "monitor", "epoch", str(epoch)),
        )
        snapshot = build_epoch_snapshot(
            world,
            epoch=epoch,
            rtt_seed=derive_seed(seed, "monitor", "rtt", str(epoch)),
            probes=probes,
            prefix_len=prefix_len,
        )
    after = degradation.collect().stages
    return EpochComputation(
        snapshot=snapshot, degradation=_degradation_delta(before, after)
    )


@dataclass(frozen=True)
class EpochRow:
    """One timeline row: an epoch's snapshot summary plus detection state.

    Attributes:
        epoch: Epoch index.
        cached: Whether the epoch was served from the artifact store.
        flows: Flows observed this epoch.
        num_bytes: Bytes observed this epoch.
        clouds: Edge-cloud count.
        dominant_share: Byte share of the dominant cloud (0.0 if empty).
        dominant_rtt_ms: Dominant cloud's RTT centroid (``None`` when
            unprobed or empty).
        distance: Dissimilarity to the previous epoch (``None`` for
            epoch 0).
        alarm: Whether the distance crossed the threshold.
        changes: Ground-truth change labels scheduled at this epoch.
        degradation: Per-stage degradation recorded computing the epoch.
        probes_lost: Prefix probes lost to the fault plan this epoch.
        digest: The snapshot's sha256 (the golden-fixture unit).
    """

    epoch: int
    cached: bool
    flows: int
    num_bytes: int
    clouds: int
    dominant_share: float
    dominant_rtt_ms: Optional[float]
    distance: Optional[float]
    alarm: bool
    changes: Tuple[str, ...]
    degradation: Dict[str, Dict[str, int]]
    probes_lost: int
    digest: str


@dataclass
class MonitorReport:
    """Everything one monitor run produced.

    Attributes:
        base: Base scenario name.
        policy: Base selection-policy kind.
        epochs: Number of monitored epochs.
        epoch_s: Epoch length in seconds.
        scale: Traffic scale.
        seed: Master seed.
        threshold: Alarm threshold on the dissimilarity.
        plan: The evolution plan (ground truth).
        rows: One :class:`EpochRow` per epoch, in order.
        clustered: The clustered snapshots, in epoch order.
        alarms: Raised alarms, in epoch order.
        truth: Ground-truth change epochs within the horizon.
        score: Alarms scored against the truth.
    """

    base: str
    policy: str
    epochs: int
    epoch_s: float
    scale: float
    seed: int
    threshold: float
    plan: EvolutionPlan
    rows: List[EpochRow]
    clustered: List[ClusteredSnapshot]
    alarms: List[Alarm]
    truth: Tuple[int, ...]
    score: DetectionScore

    def alarm_epochs(self) -> List[int]:
        return [alarm.epoch for alarm in self.alarms]

    def verdict_dict(self) -> Dict:
        """The execution- and epoch-length-invariant detection verdict.

        Exactly this sub-document must be byte-identical whether epochs
        ran in a pool or in-process, and across reasonable ``--epoch-s``
        choices (the property tests pin both).
        """
        return {
            "alarms": self.alarm_epochs(),
            "truth": list(self.truth),
            "score": self.score.as_dict(),
        }

    def as_dict(self) -> Dict:
        """The machine-readable report (``repro monitor --json``)."""
        return {
            "base": self.base,
            "policy": self.policy,
            "epochs": self.epochs,
            "epoch_s": self.epoch_s,
            "scale": self.scale,
            "seed": self.seed,
            "threshold": self.threshold,
            "static": self.plan.is_static,
            "plan": self.plan.to_json_dict(),
            "verdict": self.verdict_dict(),
            "epochs_cached": sum(1 for row in self.rows if row.cached),
            "epochs_computed": sum(1 for row in self.rows if not row.cached),
            "timeline": [
                {
                    "epoch": row.epoch,
                    "cached": row.cached,
                    "flows": row.flows,
                    "bytes": row.num_bytes,
                    "clouds": row.clouds,
                    "dominant_share": round(row.dominant_share, 6),
                    "dominant_rtt_ms": row.dominant_rtt_ms,
                    "distance": (
                        None if row.distance is None else round(row.distance, 6)
                    ),
                    "alarm": row.alarm,
                    "changes": list(row.changes),
                    "degradation": row.degradation,
                    "probes_lost": row.probes_lost,
                    "digest": row.digest,
                }
                for row in self.rows
            ],
        }

    def digest_lines(self) -> List[str]:
        """``digest epochNN <sha256>`` lines (the golden-fixture form)."""
        return [f"digest epoch{row.epoch:02d} {row.digest}" for row in self.rows]


def run_monitor(
    base: Union[str, ScenarioSpec] = "EU1-ADSL",
    plan: Optional[EvolutionPlan] = None,
    epochs: int = DEFAULT_EPOCHS,
    epoch_s: float = DEFAULT_EPOCH_S,
    scale: float = 0.02,
    seed: int = 7,
    threshold: float = DEFAULT_THRESHOLD,
    rtt_gap_ms: float = DEFAULT_RTT_GAP_MS,
    rtt_scale_ms: float = DEFAULT_RTT_SCALE_MS,
    probes: int = 4,
    prefix_len: int = 24,
    base_policy: str = "preferred",
) -> MonitorReport:
    """Monitor an evolving world and score change detection.

    Args:
        base: Base scenario — a :data:`~repro.sim.specs.NAMED_SCENARIOS`
            name or a :class:`~repro.sim.specs.ScenarioSpec`.
        plan: The evolution schedule; ``None`` monitors a static world.
        epochs: Number of consecutive epochs to monitor.
        epoch_s: Epoch length in seconds.
        scale: Traffic scale relative to the paper.
        seed: Master seed.  The physical world (latency paths, catalog,
            client placement) is built from it for *every* epoch; each
            epoch derives only a traffic sub-seed, so consecutive epochs
            are fresh workload samples of the same (or changed) scenario.
        threshold: Alarm threshold on the pattern dissimilarity.
        rtt_gap_ms: Edge-cloud single-linkage gap.
        rtt_scale_ms: RTT shift treated as a full migration.
        probes: Pings per prefix RTT measurement.
        prefix_len: Server-side aggregation prefix length.
        base_policy: Selection policy the base scenario runs.

    Returns:
        The :class:`MonitorReport`.

    Raises:
        ValueError: For a non-positive horizon or threshold, or an epoch
            length that is not positive and finite.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if not epoch_s > 0:
        raise ValueError(f"epoch_s must be positive, got {epoch_s!r}")
    if epoch_s == math.inf:
        raise ValueError("epoch_s must be finite, got inf")
    # Checked before any epoch is simulated, not only when alarms are drawn.
    detect_alarms([], threshold)
    if plan is None:
        plan = STATIC_PLAN
    if isinstance(base, str):
        base = named_scenario(base)
    worlds = [
        apply_to_scenario(base, plan.spec_at(e), base_policy=base_policy)
        for e in range(epochs)
    ]

    with obs.span(
        "monitor/run", base=base.name, epochs=epochs, epoch_s=epoch_s
    ):
        computations, cached = monitor_epoch.map(
            [
                (scenario, policy, e, epoch_s, scale, seed,
                 probes, prefix_len)
                for e, (scenario, policy) in enumerate(worlds)
            ],
            labels=[f"{base.name}/epoch{e}" for e in range(epochs)],
        )
        warm = sum(cached)
        if warm:
            obs.inc("monitor.epochs_cached", warm)
        if warm < epochs:
            obs.inc("monitor.epochs_computed", epochs - warm)

        clustered = [
            cluster_snapshot(computation.snapshot, rtt_gap_ms=rtt_gap_ms)
            for computation in computations
        ]
        distances = consecutive_distances(clustered, rtt_scale_ms=rtt_scale_ms)
        for distance in distances:
            obs.observe("monitor.distance", distance, base=base.name)
        alarms = detect_alarms(distances, threshold)
        if alarms:
            obs.inc("monitor.alarms", len(alarms), base=base.name)
        truth = plan.change_epochs(epochs)
        score = score_detection([a.epoch for a in alarms], truth)
        obs.set_gauge("monitor.precision", score.precision)
        obs.set_gauge("monitor.recall", score.recall)

        alarmed = {alarm.epoch for alarm in alarms}
        rows = []
        for e in range(epochs):
            snap = computations[e].snapshot
            dominant = clustered[e].dominant
            rows.append(
                EpochRow(
                    epoch=e,
                    cached=cached[e],
                    flows=snap.flows_total,
                    num_bytes=snap.bytes_total,
                    clouds=len(clustered[e].clouds),
                    dominant_share=dominant.share if dominant else 0.0,
                    dominant_rtt_ms=dominant.rtt_ms if dominant else None,
                    distance=None if e == 0 else distances[e - 1],
                    alarm=e in alarmed,
                    changes=plan.labels_at(e) if e in truth else (),
                    degradation=computations[e].degradation,
                    probes_lost=snap.probes_lost,
                    digest=snap.digest(),
                )
            )

    return MonitorReport(
        base=base.name,
        policy=base_policy,
        epochs=epochs,
        epoch_s=epoch_s,
        scale=scale,
        seed=seed,
        threshold=threshold,
        plan=plan,
        rows=rows,
        clustered=clustered,
        alarms=alarms,
        truth=truth,
        score=score,
    )
