"""Merge operators: per-shard kernel outputs → byte-identical study results.

Sessions are the only aggregate where shard seams need real care, because
the Section VI-A rule is stateful: a flow joins the open session of its
(client, video) group when ``t_start - horizon < T``, with ``horizon`` the
group's running max ``t_end``.  The PR-6 streaming layer solved the same
seam with its sealed-boundary rule (a session may only close once no
future flow can join it); sharding inverts that — each shard builds its
local sessions eagerly, and the merge repairs the seams.

The stitching argument (``docs/architecture.md`` carries the long form):

* A shard build uses a horizon that is never *larger* than the batch
  build's at the same flow (it is missing earlier shards' flows), so
  local builds can only **over-split** a group — never join flows the
  batch build separates.
* Let ``h`` be the group's max ``t_end`` over all *earlier* shards.  For
  a local session starting at ``t``, the batch build joins it to the
  previous session iff ``t - max(h, local_horizon) < T``; the local
  build already established ``t - local_horizon >= T`` for every
  non-first local session (and the first has no local horizon), so the
  seam test collapses to ``t - h < T``.
* Shards are contiguous, strictly increasing ``t_start`` ranges, so
  ``h`` is constant while one shard's sessions are stitched and updates
  once per (shard, group): ``h = max(h, shard-group max t_end)``.

The rest of the operators are plain exact reductions: int64 grouped sums,
histogram-count addition, sorted-sample (CDF) k-way merge, and
accumulator merges that replay shard order so the first-occurrence
``_servers`` order — which batch tie-breaking depends on — is preserved.
"""

from __future__ import annotations

import heapq
from typing import Dict, Hashable, List, Sequence, Tuple, TypeVar

import numpy as np

from repro.core.sessions import DEFAULT_GAP_S, Session
from repro.stream.accumulators import (
    HourlyShareAccumulator,
    TrafficAccumulator,
)
from repro.trace.columnar import as_table

#: One (client, video) group's local sessions inside one shard:
#: ``(items, max_t_end)`` with ``items`` a time-ordered list of
#: ``(first_t_start, payload)`` pairs and ``max_t_end`` the max flow end
#: over the whole shard-group (the horizon contribution).
GroupPartial = Tuple[List[Tuple[float, object]], float]

#: A shard's session partial: (client, video) key → :data:`GroupPartial`.
SessionPartial = Dict[Tuple[int, str], GroupPartial]

_P = TypeVar("_P")


def _stitch(
    shard_groups: Sequence[SessionPartial], gap_s: float, combine
) -> Dict[Tuple[int, str], List]:
    """Stitch per-shard local sessions across seams (the rule above).

    ``combine(open_payload, next_payload)`` joins a local session into
    the group's open merged session; payloads that start a new merged
    session pass through unchanged.
    """
    merged: Dict[Tuple[int, str], List] = {}
    carry: Dict[Tuple[int, str], float] = {}
    for groups in shard_groups:
        for key, (items, max_te) in groups.items():
            out = merged.setdefault(key, [])
            h = carry.get(key, float("-inf"))
            for first_ts, payload in items:
                if out and first_ts - h < gap_s:
                    out[-1] = combine(out[-1], payload)
                else:
                    out.append(payload)
            carry[key] = max(h, max_te)
    return merged


def _flatten(merged: Dict[Tuple[int, str], List]) -> List:
    """Merged payloads in batch order: sorted keys, time order within."""
    return [payload for key in sorted(merged) for payload in merged[key]]


def session_partial(
    records, gap_s: float = DEFAULT_GAP_S
) -> SessionPartial:
    """The slim per-shard session state :func:`merge_session_sizes` needs.

    Collapses a shard's flows to, per (client, video) group, the local
    session ``(first_t_start, size)`` pairs plus the group's max
    ``t_end`` — a few scalars per session instead of the flows
    themselves, so shard workers never ship records back.  Runs on the
    columnar session index.

    Args:
        records: The shard's flows (a
            :class:`~repro.trace.columnar.FlowTable` or record sequence).
        gap_s: The session gap T.
    """
    if gap_s <= 0:
        raise ValueError("gap_s must be positive")
    table = as_table(records)
    if len(table) == 0:
        return {}
    index = table.session_index()
    cols = table.columns()
    starts = index.session_starts(gap_s)
    first_rows = np.flatnonzero(starts)
    bounds = np.append(first_rows, len(starts))
    sizes = np.diff(bounds).tolist()
    first_ts = index.t_start[first_rows].tolist()
    src = cols.src_ip[index.order[first_rows]].tolist()
    video_ids = cols.video_ids.tolist()
    vid = cols.video_code[index.order[first_rows]].tolist()
    group_heads = np.flatnonzero(index.new_group)
    group_max_te = np.maximum.reduceat(index.t_end, group_heads).tolist()
    session_grp = (np.cumsum(index.new_group) - 1)[first_rows].tolist()
    out: SessionPartial = {}
    for i, (ts, size) in enumerate(zip(first_ts, sizes)):
        key = (src[i], video_ids[vid[i]])
        entry = out.get(key)
        if entry is None:
            entry = out[key] = ([], group_max_te[session_grp[i]])
        entry[0].append((ts, size))
    return out


def merge_session_sizes(
    partials: Sequence[SessionPartial], gap_s: float = DEFAULT_GAP_S
) -> List[int]:
    """Merged session sizes over a shard partition, in batch order.

    Args:
        partials: One :func:`session_partial` per shard, **in shard time
            order** (shard ``k`` strictly precedes shard ``k+1``).
        gap_s: The same gap the partials were built with.

    Returns:
        Flows-per-session counts equal to
        ``[s.num_flows for s in build_sessions(all_flows, gap_s)]``.
    """
    merged = _stitch(partials, gap_s, lambda a, b: a + b)
    return _flatten(merged)


def merge_sessions(
    shard_sessions: Sequence[Sequence[Session]], gap_s: float = DEFAULT_GAP_S
) -> List[Session]:
    """Stitch per-shard session lists into the whole-dataset sessions.

    The first-class operator: feed it ``build_sessions(shard, gap_s)``
    for each shard of **any** time partition (in time order) and it
    returns exactly ``build_sessions(whole, gap_s)`` — same sessions,
    same flow lists, same order.  Output sessions whose seams needed no
    repair are shared with the inputs, not copied.

    Args:
        shard_sessions: Per-shard session lists, shards in time order.
        gap_s: The same gap the shard sessions were built with.
    """
    per_shard: List[SessionPartial] = []
    for sessions in shard_sessions:
        groups: SessionPartial = {}
        for session in sessions:
            key = (session.client_ip, session.video_id)
            session_max_te = max(f.t_end for f in session.flows)
            entry = groups.get(key)
            if entry is None:
                groups[key] = ([(session.t_start, session)], session_max_te)
            else:
                entry[0].append((session.t_start, session))
                groups[key] = (entry[0], max(entry[1], session_max_te))
        per_shard.append(groups)

    def join(open_session: Session, nxt: Session) -> Session:
        return Session(
            client_ip=open_session.client_ip,
            video_id=open_session.video_id,
            flows=open_session.flows + nxt.flows,
        )

    merged = _stitch(per_shard, gap_s, join)
    return _flatten(merged)


# ------------------------------------------------------- plain reductions


def merge_grouped_sums(
    parts: Sequence[Dict[Hashable, int]]
) -> Dict[Hashable, int]:
    """Exact integer grouped-sum reduction.

    Keys keep first-occurrence order across shards — with contiguous
    time shards that equals the whole-stream first-occurrence order,
    which the preferred-DC tie-breaking depends on.  Values are Python
    ints, so sums are exact at any scale (no float64 accumulation).
    """
    out: Dict[Hashable, int] = {}
    for part in parts:
        for key, value in part.items():
            out[key] = out.get(key, 0) + int(value)
    return out


def merge_histograms(parts: Sequence[Dict[Hashable, int]]) -> Dict[Hashable, int]:
    """Merge bucket-count histograms (add counts; union of buckets).

    Bucket order follows first occurrence, so merging partials that all
    use a fixed bucket list (e.g. ``HISTOGRAM_BUCKETS``) keeps it.
    """
    return merge_grouped_sums(parts)


def merge_cdf_samples(parts: Sequence[Sequence[float]]) -> List[float]:
    """K-way merge of per-shard **sorted** sample lists.

    The merged list equals sorting the concatenation, so any CDF /
    percentile read over it matches the monolithic computation exactly.
    """
    return list(heapq.merge(*parts))


# --------------------------------------------------- accumulator merges


def merge_traffic(parts: Sequence[TrafficAccumulator]) -> TrafficAccumulator:
    """Merge per-shard :class:`TrafficAccumulator` states.

    Replays shards in order, so the merged ``_servers`` insertion order
    is the global first-occurrence order — byte-identical Table I/II and
    preferred-DC derivations follow.
    """
    out = TrafficAccumulator()
    for part in parts:
        out.flows += part.flows
        out.total_bytes += part.total_bytes
        out._clients.update(part._clients)
        for ip, stats in part._servers.items():
            merged = out._stats(ip)
            merged.num_bytes += stats.num_bytes
            merged.num_flows += stats.num_flows
            merged.video_flows += stats.video_flows
    return out


def merge_hourly(parts: Sequence[HourlyShareAccumulator]) -> HourlyShareAccumulator:
    """Merge per-shard :class:`HourlyShareAccumulator` states."""
    out = HourlyShareAccumulator()
    for part in parts:
        for ip, hours in part._counts.items():
            merged = out._counts.setdefault(ip, {})
            for hour, count in hours.items():
                merged[hour] = merged.get(hour, 0) + count
    return out
