"""YouLighter-style edge-cloud clustering of epoch snapshots.

YouLighter's observation: the servers a vantage point is directed to
group into "edge-clouds" — sets of nearby addresses at a common network
distance — and CDN changes show up as those clouds appearing, vanishing
or exchanging traffic.  Here a cloud is a group of server /24 prefixes
whose min-filtered RTTs sit within a gap threshold of each other
(single-linkage over the RTT axis — the same "same /24, same data
center; similar RTT, same site" structure Section V of the paper leans
on).  Prefixes whose probe was lost under a fault plan carry no RTT and
are pooled into one unprobed cloud: probe degradation may *coarsen* the
clustering but never invents distance — the dissimilarity metric
(:mod:`repro.monitor.detect`) charges RTT drift per prefix probed in
both epochs, so a lost probe cannot masquerade as a migration.

Clustering is exact and deterministic: sorted inputs, no RNG, no
iteration-order dependence — clustered snapshots are byte-identical
whether an epoch ran in a pool or in-process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.monitor.snapshot import RTT_DECIMALS, EpochSnapshot

#: Default single-linkage gap: consecutive prefixes further apart than
#: this (in min-RTT milliseconds) start a new edge-cloud.
DEFAULT_RTT_GAP_MS = 8.0


@dataclass(frozen=True)
class EdgeCloud:
    """One edge-cloud: a group of server prefixes at a common distance.

    Attributes:
        prefixes: Sorted member prefixes.
        num_bytes: Bytes served by the cloud this epoch.
        num_flows: Flows served by the cloud this epoch.
        share: Byte share of the epoch's total.
        rtt_ms: Byte-weighted RTT centroid, ``None`` for the unprobed
            cloud (every member's probe was lost).
    """

    prefixes: Tuple[int, ...]
    num_bytes: int
    num_flows: int
    share: float
    rtt_ms: Optional[float]


@dataclass(frozen=True)
class ClusteredSnapshot:
    """An epoch snapshot plus its edge-cloud decomposition.

    Attributes:
        snapshot: The underlying :class:`EpochSnapshot`.
        clouds: Clouds sorted by descending share (ties by first
            prefix) — ``clouds[0]`` is the dominant cloud.
    """

    snapshot: EpochSnapshot
    clouds: Tuple[EdgeCloud, ...]

    @property
    def dominant(self) -> Optional[EdgeCloud]:
        """The highest-share cloud, or ``None`` for an empty epoch."""
        return self.clouds[0] if self.clouds else None

    def prefix_shares(self) -> Dict[int, float]:
        """Byte share per prefix (delegates to the snapshot)."""
        return self.snapshot.prefix_shares()


def cluster_snapshot(
    snapshot: EpochSnapshot, rtt_gap_ms: float = DEFAULT_RTT_GAP_MS
) -> ClusteredSnapshot:
    """Group a snapshot's prefixes into edge-clouds.

    Probed prefixes are sorted by (RTT, prefix) and split wherever the
    RTT gap between neighbours exceeds ``rtt_gap_ms``; unprobed prefixes
    pool into one trailing cloud with no centroid.

    Args:
        snapshot: The epoch snapshot to cluster.
        rtt_gap_ms: Single-linkage gap threshold in milliseconds.

    Returns:
        The :class:`ClusteredSnapshot`.

    Raises:
        ValueError: For a non-positive gap.
    """
    if rtt_gap_ms <= 0:
        raise ValueError("rtt_gap_ms must be positive")
    volumes: Dict[int, List[int]] = {}  # prefix -> [bytes, flows]
    for _subnet, prefix, num_bytes, num_flows in snapshot.cells:
        totals = volumes.setdefault(prefix, [0, 0])
        totals[0] += num_bytes
        totals[1] += num_flows

    rtt_by_prefix = dict(snapshot.rtt_ms)
    probed = sorted(
        (rtt, prefix) for prefix, rtt in rtt_by_prefix.items() if prefix in volumes
    )
    unprobed = sorted(prefix for prefix in volumes if prefix not in rtt_by_prefix)

    groups: List[List[int]] = []
    previous_rtt: Optional[float] = None
    for rtt, prefix in probed:
        if previous_rtt is None or rtt - previous_rtt > rtt_gap_ms:
            groups.append([])
        groups[-1].append(prefix)
        previous_rtt = rtt
    if unprobed:
        groups.append(unprobed)

    clouds = []
    for members in groups:
        num_bytes = sum(volumes[p][0] for p in members)
        num_flows = sum(volumes[p][1] for p in members)
        weights = [(p, volumes[p][0]) for p in members if p in rtt_by_prefix]
        centroid: Optional[float] = None
        if weights:
            total_weight = sum(w for _p, w in weights)
            if total_weight > 0:
                centroid = sum(rtt_by_prefix[p] * w for p, w in weights) / total_weight
            else:
                # A probed cloud that served no bytes: plain mean.
                centroid = sum(rtt_by_prefix[p] for p, _w in weights) / len(weights)
            centroid = round(centroid, RTT_DECIMALS)
        share = (
            num_bytes / snapshot.bytes_total if snapshot.bytes_total > 0 else 0.0
        )
        clouds.append(
            EdgeCloud(
                prefixes=tuple(sorted(members)),
                num_bytes=num_bytes,
                num_flows=num_flows,
                share=share,
                rtt_ms=centroid,
            )
        )
    clouds.sort(key=lambda c: (-c.share, c.prefixes))
    return ClusteredSnapshot(snapshot=snapshot, clouds=tuple(clouds))
