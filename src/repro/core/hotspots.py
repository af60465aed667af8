"""Hot-spot and cold-content analyses (Section VII-C: Figures 13-16).

Two ends of the popularity spectrum drive application-layer redirection:

* **hot videos** ("video of the day") overload their shard server in the
  preferred data center; overflow is shed to non-preferred data centers
  during the spike (Figures 14, 15, 16);
* **cold videos** are often absent from the preferred data center, so
  their *first* access is redirected — Figure 13's mass at exactly one
  non-preferred download.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.core.nonpreferred import preference_masks
from repro.core.preferred import PreferredDcReport
from repro.core.sessions import Sessions
from repro.geoloc.clustering import ServerMap
from repro.reporting.series import Cdf, Series, hourly_counts
from repro.trace.columnar import FlowTable


def nonpreferred_requests_per_video(
    table: FlowTable,
    report: PreferredDcReport,
    server_map: ServerMap,
) -> Dict[str, int]:
    """Per-video count of video flows served by non-preferred data centers.

    Only videos downloaded at least once from a non-preferred data center
    appear (the Figure 13 population), keyed in first-download order.
    """
    is_video, verdict = preference_masks(table, report, server_map)
    cols = table.columns()
    nonpref_idx = np.flatnonzero(is_video & (verdict == 0))
    per_code = np.bincount(cols.video_code[nonpref_idx], minlength=len(cols.video_ids))
    # np.unique's return_index gives the first occurrence, so sorting
    # by it reproduces the spec's dict-insertion (first-download) order
    # — sorted() ties on equal counts break on that order downstream.
    seen_codes, first = np.unique(cols.video_code[nonpref_idx], return_index=True)
    order = np.argsort(first, kind="stable")
    return {
        str(cols.video_ids[code]): int(per_code[code])
        for code in seen_codes[order].tolist()
    }


def nonpreferred_video_cdf(
    table: FlowTable,
    report: PreferredDcReport,
    server_map: ServerMap,
) -> Cdf:
    """Figure 13: CDF of the per-video non-preferred request count.

    Raises:
        ValueError: If no video was ever served from non-preferred.
    """
    counts = nonpreferred_requests_per_video(table, report, server_map)
    if not counts:
        raise ValueError("no non-preferred video downloads")
    return Cdf(counts.values())


def exactly_once_fraction(counts: Dict[str, int]) -> float:
    """Fraction of Figure 13's videos downloaded exactly once from
    non-preferred data centers (the paper reports ~85 % for EU1-Campus).

    Raises:
        ValueError: With no videos.
    """
    if not counts:
        raise ValueError("no videos")
    return sum(1 for c in counts.values() if c == 1) / len(counts)


@dataclass
class HotVideoSeries:
    """Figure 14: one hot video's request time line.

    Attributes:
        video_id: The video.
        all_requests: Hour → total video-flow requests.
        nonpreferred_requests: Hour → requests served from non-preferred.
    """

    video_id: str
    all_requests: Series
    nonpreferred_requests: Series

    def peak_hour(self) -> int:
        """The hour with the most requests."""
        ys = self.all_requests.ys
        return int(self.all_requests.xs[ys.index(max(ys))])

    def spike_concentration(self, window_h: int = 24) -> float:
        """Share of all requests falling in the busiest 24-hour window.

        The paper's hot videos are "the video of the day" for exactly 24
        hours, so this should approach 1.
        """
        ys = self.all_requests.ys
        total = sum(ys)
        if total == 0:
            return 0.0
        best = 0.0
        for start in range(0, max(1, len(ys) - window_h + 1)):
            best = max(best, sum(ys[start : start + window_h]))
        return best / total


def top_nonpreferred_videos(
    table: FlowTable,
    report: PreferredDcReport,
    server_map: ServerMap,
    num_hours: int,
    top_k: int = 4,
) -> List[HotVideoSeries]:
    """Figure 14: time lines of the top-k non-preferred-download videos.

    One grouped pass accumulates every top video's hourly counts (the old
    implementation rescanned all flows once per video).

    Raises:
        ValueError: If no video was ever served from non-preferred.
    """
    counts = nonpreferred_requests_per_video(table, report, server_map)
    if not counts:
        raise ValueError("no non-preferred video downloads")
    top = sorted(counts, key=lambda v: -counts[v])[:top_k]

    is_video, verdict = preference_masks(table, report, server_map)
    cols = table.columns()
    # Grouped histogram: one bincount over (video rank, hour) pairs.
    rank = np.full(len(cols.video_ids), -1, dtype=np.int64)
    rank[np.searchsorted(cols.video_ids, np.asarray(top))] = np.arange(len(top))
    flow_rank = rank[cols.video_code]
    in_window = (cols.hour >= 0) & (cols.hour < num_hours)
    sel = is_video & (flow_rank >= 0) & in_window

    def grouped(mask) -> "np.ndarray":
        keys = flow_rank[mask] * num_hours + cols.hour[mask]
        return np.bincount(keys, minlength=len(top) * num_hours).reshape(
            len(top), num_hours
        )

    totals = grouped(sel & (verdict != -1))
    nonprefs = grouped(sel & (verdict == 0))
    total_by_video = {v: totals[i].tolist() for i, v in enumerate(top)}
    nonpref_by_video = {v: nonprefs[i].tolist() for i, v in enumerate(top)}

    series: List[HotVideoSeries] = []
    for video_id in top:
        total_hours = total_by_video[video_id]
        nonpref_hours = nonpref_by_video[video_id]
        all_series = Series(label=f"{video_id} all")
        nonpref_series = Series(label=f"{video_id} non-preferred")
        for hour in range(num_hours):
            all_series.append(float(hour), float(total_hours[hour]))
            nonpref_series.append(float(hour), float(nonpref_hours[hour]))
        series.append(
            HotVideoSeries(
                video_id=video_id,
                all_requests=all_series,
                nonpreferred_requests=nonpref_series,
            )
        )
    return series


@dataclass
class ServerLoadReport:
    """Figure 15: per-server hourly load inside the preferred data center.

    Attributes:
        avg_per_hour: Hour → mean requests per active server.
        max_per_hour: Hour → busiest server's requests.
    """

    avg_per_hour: Series
    max_per_hour: Series

    def peak_ratio(self) -> float:
        """max(max) / mean(avg): how far the hottest server diverges.

        Raises:
            ValueError: On empty series.
        """
        if not self.avg_per_hour.ys or not self.max_per_hour.ys:
            raise ValueError("empty load series")
        busy_avgs = [y for y in self.avg_per_hour.ys if y > 0]
        if not busy_avgs:
            raise ValueError("no active hours")
        return max(self.max_per_hour.ys) / (sum(busy_avgs) / len(busy_avgs))


def preferred_server_load(
    table: FlowTable,
    report: PreferredDcReport,
    server_map: ServerMap,
    num_hours: int,
) -> ServerLoadReport:
    """Figure 15: average and maximum per-server requests over time.

    Counts every flow (control or video) towards a server's request load,
    since the trace measures "requests served by each server (identified by
    its IP address)".
    """
    avg_series = Series(label=f"{report.dataset_name} avg")
    max_series = Series(label=f"{report.dataset_name} max")

    # verdict == 1 is exactly "dst_ip clustered into the preferred
    # data center" — the preferred_ips set of the record spec.
    _, verdict = preference_masks(table, report, server_map)
    cols = table.columns()
    _, dst_code = table.dst_codes()
    num_servers = int(dst_code.max()) + 1 if len(dst_code) else 0
    if num_servers:
        sel = (verdict == 1) & (cols.hour >= 0) & (cols.hour < num_hours)
        keys = cols.hour[sel] * num_servers + dst_code[sel]
        matrix = np.bincount(keys, minlength=num_hours * num_servers).reshape(
            num_hours, num_servers
        )
    else:
        matrix = np.zeros((num_hours, 1), dtype=np.int64)
    sums = matrix.sum(axis=1)
    active = (matrix > 0).sum(axis=1)
    peaks = matrix.max(axis=1)
    for hour in range(num_hours):
        if active[hour]:
            avg_series.append(float(hour), int(sums[hour]) / int(active[hour]))
            max_series.append(float(hour), float(int(peaks[hour])))
        else:
            avg_series.append(float(hour), 0.0)
            max_series.append(float(hour), 0.0)
    return ServerLoadReport(avg_per_hour=avg_series, max_per_hour=max_series)


@dataclass
class HotServerReport:
    """Figure 16: hourly sessions at the server handling a hot video.

    Attributes:
        server_ip: The examined server.
        all_preferred: Hour → sessions whose flows all hit preferred.
        first_preferred_rest_not: Hour → sessions redirected away after a
            preferred first contact.
        others: Hour → every other pattern.
    """

    server_ip: int
    all_preferred: Series
    first_preferred_rest_not: Series
    others: Series

    def total_sessions(self) -> int:
        """Sessions across all three groups."""
        return int(
            sum(self.all_preferred.ys)
            + sum(self.first_preferred_rest_not.ys)
            + sum(self.others.ys)
        )


def hot_server_sessions(
    sessions: Sessions,
    video_id: str,
    report: PreferredDcReport,
    server_map: ServerMap,
    num_hours: int,
) -> HotServerReport:
    """Figure 16: the load story of the server handling one hot video.

    The examined server is the preferred-data-center server receiving the
    most first-contacts for the video.

    Raises:
        ValueError: If the video never hits the preferred data center.
    """
    _, verdict = preference_masks(sessions.table, report, server_map)
    cols = sessions.table.columns()
    dst_ip = cols.dst_ip
    landed = (cols.video_ids[sessions.video_code] == video_id) & (verdict[sessions.first] == 1)
    if not landed.any():
        raise ValueError(f"video {video_id} never lands on the preferred data center")
    # The most first contacts; ties go to the server contacted first in
    # session order.
    servers, first_seen, contacts = np.unique(
        dst_ip[sessions.first[landed]], return_index=True, return_counts=True
    )
    busiest = contacts == contacts.max()
    server_ip = int(servers[busiest][np.argmin(first_seen[busiest])])

    flow_verdict = verdict[sessions.rows]
    touches = sessions.per_session_any(dst_ip[sessions.rows] == server_ip)
    all_pref = ~sessions.per_session_any(flow_verdict != 1)
    first_pref = (
        ~sessions.per_session_any(flow_verdict == -1)
        & ~all_pref
        & (flow_verdict[sessions.offsets[:-1]] == 1)
    )
    hours = (sessions.t_start // 3600.0).astype(np.int64)

    def to_series(label: str, sel) -> Series:
        counts = hourly_counts(hours[touches & sel], num_hours)
        series = Series(label=label)
        for hour in range(num_hours):
            series.append(float(hour), float(counts[hour]))
        return series

    return HotServerReport(
        server_ip=server_ip,
        all_preferred=to_series("all preferred flows", all_pref),
        first_preferred_rest_not=to_series("only the first flow is preferred", first_pref),
        others=to_series("others", ~all_pref & ~first_pref),
    )
