"""Spec of :mod:`repro.eval.attribution`: the session/truth join, one session at a time."""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.eval.attribution import MATCH_SLACK_S
from repro.sim.week import GroundTruthLog

from tests.oracle.sessions import Session


def match_session_truths(
    sessions: Sequence[Session],
    truth: GroundTruthLog,
    slack_s: float = MATCH_SLACK_S,
) -> Tuple[List[List[int]], int]:
    """Spec of :func:`repro.eval.attribution.match_session_truths`."""
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
