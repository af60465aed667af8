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
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.flows import CONTROL_FLOW_THRESHOLD_BYTES, is_video_flow
from repro.core.folds import HourlyShareAccumulator, TrafficAccumulator
from repro.core.preferred import PreferredDcReport
from repro.core.sessions import Session
from repro.geoloc.clustering import ServerMap
from repro.reporting.series import Cdf
from repro.trace.columnar import FlowTable, as_table
from repro.trace.records import FlowRecord


class SessionPattern(enum.Enum):
    """Figure 10(b)'s four two-flow patterns (first flow, second flow)."""

    PREFERRED_PREFERRED = "preferred, preferred"
    PREFERRED_NONPREFERRED = "preferred, non-preferred"
    NONPREFERRED_PREFERRED = "non-preferred, preferred"
    NONPREFERRED_NONPREFERRED = "non-preferred, non-preferred"


def _preferred_test(
    report: PreferredDcReport, server_map: ServerMap
) -> Callable[[int], Optional[bool]]:
    preferred_id = report.preferred_id

    def test(server_ip: int) -> Optional[bool]:
        cluster = server_map.by_ip.get(server_ip)
        if cluster is None:
            return None
        return cluster.cluster_id == preferred_id

    return test


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


def video_flow_preference(
    records: Union[Iterable[FlowRecord], FlowTable],
    report: PreferredDcReport,
    server_map: ServerMap,
) -> Dict[bool, List[FlowRecord]]:
    """Split video flows by whether they hit the preferred data center.

    Returns:
        ``{True: flows to preferred, False: flows to non-preferred}``;
        flows to unclustered servers are dropped.
    """
    table = as_table(records)
    is_video, verdict = preference_masks(table, report, server_map)
    recs = table.records
    return {
        True: [recs[i] for i in np.flatnonzero(is_video & (verdict == 1)).tolist()],
        False: [recs[i] for i in np.flatnonzero(is_video & (verdict == 0)).tolist()],
    }


def hourly_nonpreferred_cdf(
    records: Union[Sequence[FlowRecord], FlowTable],
    report: PreferredDcReport,
    server_map: ServerMap,
    num_hours: int,
    min_flows_per_hour: int = 5,
) -> Cdf:
    """Figure 9: CDF of the hourly fraction of video flows to non-preferred.

    Args:
        records: The dataset's (focus-filtered) flow records.
        report: Preferred-data-center report.
        server_map: CBG clustering.
        num_hours: Hours in the collection window.
        min_flows_per_hour: Hours with fewer video flows are skipped.

    Raises:
        ValueError: If no hour has enough flows.
    """
    return HourlyShareAccumulator(as_table(records)).cdf(
        report, server_map, num_hours, min_flows_per_hour=min_flows_per_hour
    )


def nonpreferred_fraction(
    records: Union[Sequence[FlowRecord], FlowTable],
    report: PreferredDcReport,
    server_map: ServerMap,
) -> float:
    """Overall fraction of video flows served by non-preferred data centers.

    Raises:
        ValueError: With no classifiable video flows.
    """
    return TrafficAccumulator(as_table(records)).nonpreferred_fraction(
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


def one_flow_breakdown(
    sessions: Sequence[Session],
    report: PreferredDcReport,
    server_map: ServerMap,
) -> OneFlowBreakdown:
    """Compute Figure 10(a)'s bar for one dataset."""
    test = _preferred_test(report, server_map)
    preferred = 0
    nonpreferred = 0
    for session in sessions:
        if session.num_flows != 1:
            continue
        verdict = test(session.first_flow.dst_ip)
        if verdict is None:
            continue
        if verdict:
            preferred += 1
        else:
            nonpreferred += 1
    return OneFlowBreakdown(
        dataset_name=report.dataset_name,
        total_sessions=len(sessions),
        preferred=preferred,
        nonpreferred=nonpreferred,
    )


def two_flow_breakdown(
    sessions: Sequence[Session],
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
    test = _preferred_test(report, server_map)
    counts: Dict[SessionPattern, int] = {p: 0 for p in SessionPattern}
    total = 0
    for session in sessions:
        if session.num_flows != 2:
            continue
        first = test(session.flows[0].dst_ip)
        second = test(session.flows[1].dst_ip)
        if first is None or second is None:
            continue
        if first and second:
            pattern = SessionPattern.PREFERRED_PREFERRED
        elif first and not second:
            pattern = SessionPattern.PREFERRED_NONPREFERRED
        elif not first and second:
            pattern = SessionPattern.NONPREFERRED_PREFERRED
        else:
            pattern = SessionPattern.NONPREFERRED_NONPREFERRED
        counts[pattern] += 1
        total += 1
    if total == 0:
        raise ValueError("no classifiable two-flow sessions")
    return {pattern: counts[pattern] / total for pattern in SessionPattern}


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
    sessions: Sequence[Session],
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
    test = _preferred_test(report, server_map)
    counted = all_pref = first_pref_mixed = first_nonpref = 0
    for session in sessions:
        if session.num_flows < min_flows:
            continue
        verdicts = [test(f.dst_ip) for f in session.flows]
        if any(v is None for v in verdicts):
            continue
        counted += 1
        if verdicts[0] is False:
            first_nonpref += 1
        elif all(verdicts):
            all_pref += 1
        else:
            first_pref_mixed += 1
    return MultiFlowBreakdown(
        dataset_name=report.dataset_name,
        total_sessions=len(sessions),
        sessions=counted,
        all_preferred=all_pref,
        first_preferred_rest_mixed=first_pref_mixed,
        first_nonpreferred=first_nonpref,
    )


#: Blind per-session verdict labels (shared vocabulary with the simulator
#: ground truth in :mod:`repro.sim.engine` — same strings by design, so
#: the attribution scorer's confusion matrix needs no translation).
VERDICT_PREFERRED = "preferred"
VERDICT_DNS = "dns"
VERDICT_REDIRECTION = "redirection"


def session_verdicts(
    sessions: Sequence[Session],
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
        One verdict per session, parallel to ``sessions``.
    """
    test = _preferred_test(report, server_map)
    verdicts: List[Optional[str]] = []
    for session in sessions:
        first = test(session.first_flow.dst_ip)
        if first is None:
            verdicts.append(None)
            continue
        if first is False:
            verdicts.append(VERDICT_DNS)
            continue
        later = [test(flow.dst_ip) for flow in session.flows[1:]]
        if any(v is False for v in later):
            verdicts.append(VERDICT_REDIRECTION)
        elif any(v is None for v in later):
            verdicts.append(None)
        else:
            verdicts.append(VERDICT_PREFERRED)
    return verdicts


def dns_vs_redirection_shares(
    sessions: Sequence[Session],
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
    test = _preferred_test(report, server_map)
    dns = 0
    redirection = 0
    for session in sessions:
        first = test(session.first_flow.dst_ip)
        if first is None:
            continue
        for flow in session.flows:
            if not is_video_flow(flow):
                continue
            verdict = test(flow.dst_ip)
            if verdict is not False:
                continue
            if first is False:
                dns += 1
            else:
                redirection += 1
    total = dns + redirection
    if total == 0:
        return {"dns": 0.0, "redirection": 0.0}
    return {"dns": dns / total, "redirection": redirection / total}
