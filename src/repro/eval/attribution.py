"""Attribution scoring: blind session verdicts vs. simulator ground truth.

The paper's Figure-10 methodology labels every video session *blind* —
"preferred", "dns" or "redirection" — from cluster membership alone
(:func:`repro.core.nonpreferred.session_verdicts`).  The simulator knows
what actually happened: every request's :class:`~repro.sim.week.
GroundTruthLog` entry records the policy's intended (anchor) data center,
the DNS answer, and the redirect chain.  This module joins the two sides
and emits, per dataset and per selection policy, a 3×3 confusion matrix
(truth × inferred), its accuracy, and a preferred-DC agreement check —
the number the selection-policy testbed exists to produce: *how wrong
does the blind methodology get under each mechanism?*

Sessions and truth records join on ``(client_ip, video_id)`` plus time
containment: a request belongs to the session whose flow span covers its
time (with a small slack for flows the monitor missed at the session's
edge).  Requests whose flows the monitor missed entirely — so no session
contains them — are counted as orphans, not errors.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.pipeline import StudyPipeline
from repro.core.sessions import Session
from repro.core.validation import cluster_majority_dc
from repro.sim.week import (
    GroundTruthLog,
    SimulationResult,
    TRUTH_DNS,
    TRUTH_LABELS,
    TRUTH_REDIRECTION,
)
from repro.trace.records import Dataset

#: Seconds of slack when matching a request time to a session's flow span
#: (covers first flows the monitor missed, which shift the observed start
#: after the request time).
MATCH_SLACK_S = 5.0


@dataclass(frozen=True)
class AttributionScore:
    """One dataset's blind-verdict scorecard under one policy.

    Attributes:
        dataset_name: Dataset scored.
        policy_kind: Selection policy the world ran.
        matrix: Confusion counts, ``(truth label, inferred label)`` →
            sessions; both axes range over :data:`~repro.sim.week.
            TRUTH_LABELS`.
        matched_sessions: Sessions joined to ≥1 truth record and blindly
            classified (the matrix total).
        unmatched_sessions: Sessions no truth record joined to.
        unclassified_sessions: Sessions whose blind verdict is ``None``
            (unclustered servers) — excluded from the matrix.
        orphan_requests: Truth records no session contains (the monitor
            missed every flow of the request).
        inferred_preferred_dc: Ground-truth data center owning most of
            the blindly inferred preferred cluster's servers.
        true_preferred_dc: Modal anchor data center of the truth log —
            what the policy actually intended, most of the week.
    """

    dataset_name: str
    policy_kind: str
    matrix: Mapping[Tuple[str, str], int]
    matched_sessions: int
    unmatched_sessions: int
    unclassified_sessions: int
    orphan_requests: int
    inferred_preferred_dc: Optional[str]
    true_preferred_dc: str

    @property
    def accuracy(self) -> float:
        """Diagonal share of the confusion matrix (0 when empty)."""
        total = sum(self.matrix.values())
        if total == 0:
            return 0.0
        agree = sum(self.matrix.get((label, label), 0) for label in TRUTH_LABELS)
        return agree / total

    @property
    def coverage(self) -> float:
        """Share of sessions that were matched and classified."""
        total = (
            self.matched_sessions
            + self.unmatched_sessions
            + self.unclassified_sessions
        )
        return self.matched_sessions / max(1, total)

    @property
    def preferred_match(self) -> bool:
        """Did the blind preferred-DC inference hit the policy's intent?"""
        return self.inferred_preferred_dc == self.true_preferred_dc

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready view (``repro eval --json``, the smoke benchmark)."""
        return {
            "dataset": self.dataset_name,
            "policy": self.policy_kind,
            "accuracy": self.accuracy,
            "coverage": self.coverage,
            "matrix": {
                f"{truth}->{inferred}": count
                for (truth, inferred), count in sorted(self.matrix.items())
            },
            "matched_sessions": self.matched_sessions,
            "unmatched_sessions": self.unmatched_sessions,
            "unclassified_sessions": self.unclassified_sessions,
            "orphan_requests": self.orphan_requests,
            "inferred_preferred_dc": self.inferred_preferred_dc,
            "true_preferred_dc": self.true_preferred_dc,
            "preferred_match": self.preferred_match,
        }


def match_session_truths(
    sessions: Sequence[Session],
    truth: GroundTruthLog,
    slack_s: float = MATCH_SLACK_S,
) -> Tuple[List[List[int]], int]:
    """Join truth records to the sessions whose flow spans contain them.

    Args:
        sessions: One dataset's sessions (any order).
        truth: The dataset's ground-truth log.
        slack_s: Tolerated gap between a request time and the session's
            observed span (monitor-missed edge flows).

    Returns:
        ``(assignments, orphans)`` — per-session lists of truth-record
        indices (parallel to ``sessions``), and the count of truth
        records no session contains.
    """
    by_key: Dict[Tuple[int, str], List[int]] = {}
    for position, session in enumerate(sessions):
        by_key.setdefault((session.client_ip, session.video_id), []).append(position)
    for positions in by_key.values():
        positions.sort(key=lambda p: sessions[p].t_start)

    truth_by_key: Dict[Tuple[int, str], List[int]] = {}
    for index in range(len(truth)):
        key = (truth.client_ips[index], truth.video_ids[index])
        truth_by_key.setdefault(key, []).append(index)

    assignments: List[List[int]] = [[] for _ in sessions]
    orphans = 0
    for key, indices in truth_by_key.items():
        positions = by_key.get(key)
        if not positions:
            orphans += len(indices)
            continue
        indices.sort(key=lambda i: truth.t_s[i])
        cursor = 0
        for index in indices:
            t = truth.t_s[index]
            # Same-key sessions are time-disjoint (the gap merge separates
            # them), so advance past every session that ended before t.
            while (
                cursor < len(positions)
                and t > sessions[positions[cursor]].last_flow.t_end + slack_s
            ):
                cursor += 1
            if (
                cursor < len(positions)
                and t >= sessions[positions[cursor]].t_start - slack_s
            ):
                assignments[positions[cursor]].append(index)
            else:
                orphans += 1
    return assignments, orphans


def _session_truth_label(truth: GroundTruthLog, indices: Sequence[int]) -> str:
    """Aggregate request labels into one session-level truth label.

    Precedence mirrors the blind verdict's semantics: any DNS-caused
    request makes the session DNS-caused; else any redirected request
    makes it redirection; else it is preferred end to end.
    """
    labels = {truth.labels[index] for index in indices}
    if TRUTH_DNS in labels:
        return TRUTH_DNS
    if TRUTH_REDIRECTION in labels:
        return TRUTH_REDIRECTION
    return TRUTH_LABELS[0]


def _modal_anchor_dc(truth: GroundTruthLog) -> str:
    """The anchor data center most requests carried (deterministic ties)."""
    counts = Counter(truth.anchor_dcs)
    if not counts:
        return ""
    return min(counts, key=lambda dc_id: (-counts[dc_id], dc_id))


def score_dataset(
    pipeline: StudyPipeline,
    result: SimulationResult,
    name: str,
    policy_kind: str,
) -> AttributionScore:
    """Score one dataset's blind verdicts against its ground truth."""
    sessions = pipeline.sessions[name]
    verdicts = pipeline.session_verdicts(name)
    assignments, orphans = match_session_truths(sessions, result.truth)

    matrix: Dict[Tuple[str, str], int] = {}
    matched = unmatched = unclassified = 0
    for verdict, indices in zip(verdicts, assignments):
        if not indices:
            unmatched += 1
            continue
        if verdict is None:
            unclassified += 1
            continue
        matched += 1
        cell = (_session_truth_label(result.truth, indices), verdict)
        matrix[cell] = matrix.get(cell, 0) + 1

    report = pipeline.preferred_reports[name]
    return AttributionScore(
        dataset_name=name,
        policy_kind=policy_kind,
        matrix=matrix,
        matched_sessions=matched,
        unmatched_sessions=unmatched,
        unclassified_sessions=unclassified,
        orphan_requests=orphans,
        inferred_preferred_dc=cluster_majority_dc(
            pipeline, result, report.preferred_id
        ),
        true_preferred_dc=_modal_anchor_dc(result.truth),
    )


def score_attribution(
    pipeline: StudyPipeline,
    results: Mapping[str, SimulationResult],
    policy_kind: str,
) -> Dict[str, AttributionScore]:
    """Score every dataset of a study (pipeline dataset order)."""
    return {
        name: score_dataset(pipeline, results[name], name, policy_kind)
        for name in pipeline.dataset_names
        if name in results
    }


@dataclass(frozen=True)
class PolicyEvaluation:
    """A policy's full evaluation: per-dataset scores plus trace digests.

    Attributes:
        policy_kind: The evaluated selection policy.
        scores: Per-dataset attribution scorecards.
        datasets: The evaluated traces, hashed only when :attr:`digests`
            is read.
    """

    policy_kind: str
    scores: Dict[str, AttributionScore]
    datasets: Dict[str, Dataset] = field(repr=False)

    @cached_property
    def digests(self) -> Dict[str, str]:
        """Per-dataset trace content digests (byte-identity checks — the
        golden-fixture scripts read these)."""
        return {name: dataset.content_digest() for name, dataset in self.datasets.items()}

    @property
    def mean_accuracy(self) -> float:
        """Unweighted mean accuracy over datasets (0 with none)."""
        if not self.scores:
            return 0.0
        return sum(score.accuracy for score in self.scores.values()) / len(self.scores)

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready view of the whole evaluation."""
        return {
            "policy": self.policy_kind,
            "mean_accuracy": self.mean_accuracy,
            "datasets": {
                name: score.as_dict() for name, score in self.scores.items()
            },
            "digests": dict(self.digests),
        }


def evaluate_policy(
    policy_kind: str,
    scale: float = 0.01,
    seed: int = 7,
    landmark_count: Optional[int] = 60,
    names: Optional[Tuple[str, ...]] = None,
) -> PolicyEvaluation:
    """Simulate a policy's study, run the blind pipeline, and score it.

    Args:
        policy_kind: A registered selection-policy kind.
        scale: Traffic scale for the simulated weeks.
        seed: Master seed.
        landmark_count: CBG landmark budget (``None`` = all landmarks).
        names: Datasets to evaluate (default: all five).

    Returns:
        The :class:`PolicyEvaluation`.

    Raises:
        repro.cdn.selection.UnknownPolicyError: For unregistered kinds
            (raised before any simulation).
    """
    from repro.sim.driver import run_all

    # Fail fast on unknown kinds — before a five-week simulation starts.
    from repro.cdn.selection import UnknownPolicyError, registered_policy_kinds

    if policy_kind not in registered_policy_kinds():
        raise UnknownPolicyError(policy_kind)

    results = run_all(
        scale=scale, seed=seed, policy_kind=policy_kind, names=names,
    )
    pipeline = StudyPipeline(results, landmark_count=landmark_count)
    return PolicyEvaluation(
        policy_kind=policy_kind,
        scores=score_attribution(pipeline, results, policy_kind),
        datasets={name: result.dataset for name, result in results.items()},
    )


def render_attribution(evaluation: PolicyEvaluation) -> str:
    """Text scorecard: one confusion matrix per dataset, then a summary."""
    lines = [f"ATTRIBUTION SCORECARD — policy={evaluation.policy_kind}"]
    width = max(len(label) for label in TRUTH_LABELS)
    for name, score in evaluation.scores.items():
        lines.append("")
        lines.append(
            f"{name}: accuracy={score.accuracy:.3f} "
            f"coverage={score.coverage:.3f} "
            f"sessions={score.matched_sessions} "
            f"(unmatched {score.unmatched_sessions}, "
            f"unclassified {score.unclassified_sessions}, "
            f"orphan requests {score.orphan_requests})"
        )
        header = " ".join(f"{label:>{width}s}" for label in TRUTH_LABELS)
        lines.append(f"  truth \\ inferred  {header}")
        for truth_label in TRUTH_LABELS:
            cells = " ".join(
                f"{score.matrix.get((truth_label, inferred), 0):>{width}d}"
                for inferred in TRUTH_LABELS
            )
            lines.append(f"  {truth_label:>16s}  {cells}")
        verdict = "MATCH" if score.preferred_match else "MISMATCH"
        lines.append(
            f"  preferred DC: inferred {score.inferred_preferred_dc} "
            f"vs intended {score.true_preferred_dc} [{verdict}]"
        )
    lines.append("")
    lines.append(
        f"mean accuracy over {len(evaluation.scores)} datasets: "
        f"{evaluation.mean_accuracy:.3f}"
    )
    return "\n".join(lines)
