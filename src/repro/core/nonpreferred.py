"""Non-preferred data-center accesses (Sections VI-B/C: Figures 9, 10).

Two mechanisms can land a video flow on a non-preferred data center: the
DNS answer itself, or an application-layer redirect after a correct DNS
answer.  The session flow patterns disambiguate them:

* a single-flow session to a non-preferred data center, or a session whose
  *first* flow already targets one → the DNS did it;
* a session whose first flow targets the preferred data center but whose
  later flows do not → application-layer redirection did it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.flows import CONTROL_FLOW_THRESHOLD_BYTES
from repro.core.folds import HourlyShareAccumulator, TrafficAccumulator
from repro.core.preferred import PreferredDcReport
from repro.core.sessions import Sessions
from repro.geoloc.clustering import ServerMap
from repro.reporting.series import Cdf
from repro.trace.columnar import FlowTable


class SessionPattern(enum.Enum):
    """Figure 10(b)'s four two-flow patterns (first flow, second flow)."""

    PREFERRED_PREFERRED = "preferred, preferred"
    PREFERRED_NONPREFERRED = "preferred, non-preferred"
    NONPREFERRED_PREFERRED = "non-preferred, preferred"
    NONPREFERRED_NONPREFERRED = "non-preferred, non-preferred"


def preference_masks(
    table: FlowTable, report: PreferredDcReport, server_map: ServerMap
) -> Tuple["object", "object"]:
    """Columnar flow classification shared by the Figure 9-16 kernels.

    Returns:
        ``(is_video, verdict)`` — per-flow boolean video mask (the size
        heuristic) and per-flow int8 verdict: ``1`` preferred, ``0``
        non-preferred, ``-1`` unclustered.  The verdict is resolved once
        per distinct server address, not once per flow.
    """
    cols = table.columns()
    dst_unique, dst_code = table.dst_codes()
    preferred_id = report.preferred_id
    by_ip = server_map.by_ip
    per_ip = np.empty(len(dst_unique), dtype=np.int8)
    for i, ip in enumerate(dst_unique.tolist()):
        cluster = by_ip.get(ip)
        if cluster is None:
            per_ip[i] = -1
        else:
            per_ip[i] = 1 if cluster.cluster_id == preferred_id else 0
    is_video = cols.num_bytes >= CONTROL_FLOW_THRESHOLD_BYTES
    return is_video, per_ip[dst_code]


def hourly_nonpreferred_cdf(
    table: FlowTable,
    report: PreferredDcReport,
    server_map: ServerMap,
    num_hours: int,
    min_flows_per_hour: int = 5,
) -> Cdf:
    """Figure 9: CDF of the hourly fraction of video flows to non-preferred.

    Args:
        table: The dataset's (focus-filtered) flows.
        report: Preferred-data-center report.
        server_map: CBG clustering.
        num_hours: Hours in the collection window.
        min_flows_per_hour: Hours with fewer video flows are skipped.

    Raises:
        ValueError: If no hour has enough flows.
    """
    return HourlyShareAccumulator(table).cdf(
        report, server_map, num_hours, min_flows_per_hour=min_flows_per_hour
    )


def nonpreferred_fraction(
    table: FlowTable,
    report: PreferredDcReport,
    server_map: ServerMap,
) -> float:
    """Overall fraction of video flows served by non-preferred data centers.

    Raises:
        ValueError: With no classifiable video flows.
    """
    return TrafficAccumulator(table).nonpreferred_fraction(
        report, server_map
    )


@dataclass(frozen=True)
class OneFlowBreakdown:
    """Figure 10(a): single-flow sessions by destination preference.

    Attributes:
        dataset_name: Dataset the breakdown describes.
        total_sessions: All sessions (any flow count).
        preferred: Single-flow sessions to the preferred data center.
        nonpreferred: Single-flow sessions to a non-preferred one.
    """

    dataset_name: str
    total_sessions: int
    preferred: int
    nonpreferred: int

    @property
    def preferred_fraction(self) -> float:
        """Share of all sessions: one flow, preferred."""
        return self.preferred / max(1, self.total_sessions)

    @property
    def nonpreferred_fraction(self) -> float:
        """Share of all sessions: one flow, non-preferred."""
        return self.nonpreferred / max(1, self.total_sessions)

    @property
    def one_flow_fraction(self) -> float:
        """Share of all sessions that involve exactly one flow."""
        return (self.preferred + self.nonpreferred) / max(1, self.total_sessions)


def _session_verdicts(
    sessions: Sessions, report: PreferredDcReport, server_map: ServerMap
) -> "np.ndarray":
    """Per-flow :func:`preference_masks` verdicts, in session order."""
    return preference_masks(sessions.table, report, server_map)[1][sessions.rows]


def one_flow_breakdown(
    sessions: Sessions,
    report: PreferredDcReport,
    server_map: ServerMap,
) -> OneFlowBreakdown:
    """Compute Figure 10(a)'s bar for one dataset."""
    first = _session_verdicts(sessions, report, server_map)[sessions.offsets[:-1]]
    single = sessions.sizes == 1
    return OneFlowBreakdown(
        dataset_name=report.dataset_name,
        total_sessions=len(sessions),
        preferred=int(np.count_nonzero(single & (first == 1))),
        nonpreferred=int(np.count_nonzero(single & (first == 0))),
    )


def two_flow_breakdown(
    sessions: Sessions,
    report: PreferredDcReport,
    server_map: ServerMap,
) -> Dict[SessionPattern, float]:
    """Figure 10(b): the four patterns among two-flow sessions.

    Returns:
        Mapping pattern → fraction of *two-flow* sessions (sums to 1 over
        classifiable sessions).

    Raises:
        ValueError: With no classifiable two-flow sessions.
    """
    verdict = _session_verdicts(sessions, report, server_map)
    heads = sessions.offsets[:-1][sessions.sizes == 2]
    first, second = verdict[heads], verdict[heads + 1]
    classified = (first != -1) & (second != -1)
    first, second = first[classified], second[classified]
    total = len(first)
    if total == 0:
        raise ValueError("no classifiable two-flow sessions")
    # SessionPattern's order: (preferred, preferred) is 0, ..., both
    # non-preferred is 3.
    counts = np.bincount(2 * (first == 0) + (second == 0), minlength=4).tolist()
    return {pattern: count / total for pattern, count in zip(SessionPattern, counts)}


@dataclass(frozen=True)
class MultiFlowBreakdown:
    """Sessions with more than two flows, by redirect pattern (Section VI-C).

    "We have also considered sessions with more than 2 flows.  They account
    for 5.18-10% of the total number of sessions, and they show similar
    trends to 2-flow sessions."

    Attributes:
        dataset_name: Dataset described.
        total_sessions: All sessions of the dataset.
        sessions: Sessions with ≥3 flows that could be classified.
        all_preferred: Every flow hits the preferred data center.
        first_preferred_rest_mixed: First flow preferred, at least one later
            flow non-preferred (the EU1 redirection signature).
        first_nonpreferred: The first flow already non-preferred (DNS).
    """

    dataset_name: str
    total_sessions: int
    sessions: int
    all_preferred: int
    first_preferred_rest_mixed: int
    first_nonpreferred: int

    @property
    def share_of_all_sessions(self) -> float:
        """Multi-flow sessions as a share of all sessions."""
        return self.sessions / max(1, self.total_sessions)

    def fraction(self, count: int) -> float:
        """A pattern count as a fraction of classified multi-flow sessions."""
        return count / max(1, self.sessions)


def multi_flow_breakdown(
    sessions: Sessions,
    report: PreferredDcReport,
    server_map: ServerMap,
    min_flows: int = 3,
) -> MultiFlowBreakdown:
    """Classify sessions with ``min_flows`` or more flows.

    Raises:
        ValueError: For ``min_flows < 2``.
    """
    if min_flows < 2:
        raise ValueError("min_flows must be >= 2")
    verdict = _session_verdicts(sessions, report, server_map)
    first = verdict[sessions.offsets[:-1]]
    counted = (sessions.sizes >= min_flows) & ~sessions.per_session_any(verdict == -1)
    all_pref = counted & ~sessions.per_session_any(verdict != 1)
    first_nonpref = counted & (first == 0)
    return MultiFlowBreakdown(
        dataset_name=report.dataset_name,
        total_sessions=len(sessions),
        sessions=int(np.count_nonzero(counted)),
        all_preferred=int(np.count_nonzero(all_pref)),
        first_preferred_rest_mixed=int(np.count_nonzero(counted & ~all_pref & ~first_nonpref)),
        first_nonpreferred=int(np.count_nonzero(first_nonpref)),
    )


#: Blind per-session verdict labels (shared vocabulary with the simulator
#: ground truth in :mod:`repro.sim.engine` — same strings by design, so
#: the attribution scorer's confusion matrix needs no translation).
VERDICT_PREFERRED = "preferred"
VERDICT_DNS = "dns"
VERDICT_REDIRECTION = "redirection"


def session_verdicts(
    sessions: Sessions,
    report: PreferredDcReport,
    server_map: ServerMap,
) -> List[Optional[str]]:
    """Per-session blind attribution verdicts (the Figure 10 logic).

    For each session, using only what the measurement pipeline can see
    (cluster labels and the inferred preferred data center):

    * first flow to a non-preferred cluster → :data:`VERDICT_DNS`
      (the DNS answer itself sent the session away);
    * first flow preferred but a later flow non-preferred →
      :data:`VERDICT_REDIRECTION` (application-layer redirect);
    * every flow preferred → :data:`VERDICT_PREFERRED`;
    * ``None`` when the verdict is undecidable — the first flow's server
      is unclustered, or all later flows needed for the preferred verdict
      are unclustered.

    Returns:
        One verdict per session, in session order.
    """
    verdict = _session_verdicts(sessions, report, server_map)
    first = verdict[sessions.offsets[:-1]]
    # With a preferred first flow, "any flow" of the session is "any
    # later flow": a non-preferred one wins over an unclustered one.
    code = np.select(
        [
            first == -1,
            first == 0,
            sessions.per_session_any(verdict == 0),
            sessions.per_session_any(verdict == -1),
        ],
        [0, 1, 2, 0],
        default=3,
    )
    labels = np.array([None, VERDICT_DNS, VERDICT_REDIRECTION, VERDICT_PREFERRED], dtype=object)
    return labels[code].tolist()


def dns_vs_redirection_shares(
    sessions: Sessions,
    report: PreferredDcReport,
    server_map: ServerMap,
) -> Dict[str, float]:
    """Attribute non-preferred *video* flows to DNS vs. redirection.

    A session's video flows to non-preferred data centers are DNS-caused
    when the session's first flow already went to a non-preferred data
    center, redirection-caused when the first flow went to the preferred
    one.  Returns the share of each cause (sums to 1 when any
    non-preferred video flow exists).
    """
    verdict = _session_verdicts(sessions, report, server_map)
    is_video = sessions.table.columns().num_bytes[sessions.rows] >= CONTROL_FLOW_THRESHOLD_BYTES
    first = np.repeat(verdict[sessions.offsets[:-1]], sessions.sizes)
    nonpref_video = is_video & (verdict == 0)
    dns = int(np.count_nonzero(nonpref_video & (first == 0)))
    redirection = int(np.count_nonzero(nonpref_video & (first == 1)))
    total = dns + redirection
    if total == 0:
        return {"dns": 0.0, "redirection": 0.0}
    return {"dns": dns / total, "redirection": redirection / total}
