"""Methodology validation: inference vs. ground truth.

A unique payoff of reproducing a measurement study on a *simulated* world:
the ground truth exists, so the methodology's error is measurable.  Did the
CBG-plus-clustering-plus-session pipeline infer the right preferred data
center?  How far off is the inferred non-preferred fraction from the true
one?  The authors could never ask these questions of their own techniques;
here every one has a number.

This module deliberately crosses the measurement/ground-truth firewall —
that is its entire purpose — and nothing in :mod:`repro.core` depends on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.pipeline import StudyPipeline
from repro.sim.week import SimulationResult


@dataclass(frozen=True)
class ValidationRow:
    """Inference-vs-truth comparison for one dataset.

    Attributes:
        dataset_name: Dataset validated.
        inferred_preferred_cluster: The analysis pipeline's preferred
            data-center cluster.
        true_preferred_dc: The policy's actual top-ranked data center.
        preferred_matches: Whether the inferred cluster is dominated by the
            true preferred data center's servers.
        inferred_nonpreferred_fraction: The Figure 9 number the analysis
            reports.
        true_nonpreferred_fraction: Fraction of requests the simulator
            actually served from non-preferred data centers.
    """

    dataset_name: str
    inferred_preferred_cluster: str
    true_preferred_dc: str
    preferred_matches: bool
    inferred_nonpreferred_fraction: float
    true_nonpreferred_fraction: float

    @property
    def nonpreferred_error(self) -> float:
        """Absolute inference error on the non-preferred fraction."""
        return abs(
            self.inferred_nonpreferred_fraction - self.true_nonpreferred_fraction
        )


def cluster_majority_dc(
    pipeline: StudyPipeline, result: SimulationResult, cluster_id: str
) -> Optional[str]:
    """The ground-truth data center owning most of a cluster's servers.

    A tie goes to the smallest data-center id, so the answer never
    depends on the order the servers were counted in.
    """
    counts: Dict[str, int] = {}
    for cluster in pipeline.server_map.clusters:
        if cluster.cluster_id != cluster_id:
            continue
        for ip in cluster.server_ips:
            dc_id = result.truth.dc_of_server(ip)
            if dc_id is not None:
                counts[dc_id] = counts.get(dc_id, 0) + 1
    if not counts:
        return None
    return min(counts, key=lambda dc_id: (-counts[dc_id], dc_id))


def validate_dataset(
    pipeline: StudyPipeline, result: SimulationResult, name: str
) -> ValidationRow:
    """Validate the pipeline's inferences for one dataset.

    Args:
        pipeline: The analysis pipeline (inference side).
        result: The simulation result (ground-truth side).
        name: Dataset name.

    Returns:
        The :class:`ValidationRow`.
    """
    report = pipeline.preferred_reports[name]
    true_preferred = result.truth.preferred_dc
    majority = cluster_majority_dc(pipeline, result, report.preferred_id)

    # Ground-truth non-preferred fraction: requests served by any data
    # center other than the policy's top choice.
    served_preferred = result.served_dc_counts.get(true_preferred, 0)
    true_fraction = 1.0 - served_preferred / max(1, result.requests)

    return ValidationRow(
        dataset_name=name,
        inferred_preferred_cluster=report.preferred_id,
        true_preferred_dc=true_preferred,
        preferred_matches=(majority == true_preferred),
        inferred_nonpreferred_fraction=pipeline.nonpreferred_fraction(name),
        true_nonpreferred_fraction=true_fraction,
    )


def validate_study(
    pipeline: StudyPipeline, results: Dict[str, SimulationResult]
) -> Dict[str, ValidationRow]:
    """Validate every dataset of a study.

    Returns:
        Mapping dataset name → its validation row.
    """
    return {
        name: validate_dataset(pipeline, results[name], name)
        for name in pipeline.dataset_names
        if name in results
    }


def render_validation(rows: Dict[str, ValidationRow]) -> str:
    """Text summary of the methodology's measured accuracy."""
    lines = ["METHODOLOGY VALIDATION — inference vs. ground truth"]
    for name, row in rows.items():
        verdict = "MATCH" if row.preferred_matches else "MISMATCH"
        lines.append(
            f"{name:12s} preferred: {row.inferred_preferred_cluster} "
            f"vs {row.true_preferred_dc} [{verdict}]  "
            f"non-preferred: inferred {row.inferred_nonpreferred_fraction:.3f} "
            f"vs true {row.true_nonpreferred_fraction:.3f} "
            f"(err {row.nonpreferred_error:.3f})"
        )
    return "\n".join(lines)
