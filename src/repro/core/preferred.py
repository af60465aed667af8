"""Preferred-data-center analysis (Section VI-B: Figures 7, 8).

"We observe that except for EU2, in each dataset one data center provides
more than 85% of the traffic.  We refer to this primary data center as the
preferred data center ... At EU2, two data centers provide more than 95% of
the data ... We label the data center with the smallest RTT in EU2 as the
preferred one."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional, Sequence

from repro.geo.coords import GeoPoint
from repro.geoloc.clustering import DataCenterCluster, ServerMap
from repro.reporting.series import Series
from repro.trace.records import Dataset

#: A data center must carry at least this byte share to be considered when
#: applying the paper's smallest-RTT tie-break (the EU2 rule).
MAJOR_SHARE_THRESHOLD = 0.15


@dataclass
class DataCenterView:
    """One inferred data center as seen from one vantage point.

    Attributes:
        cluster: The underlying server cluster.
        num_bytes: Bytes the vantage point downloaded from it.
        num_flows: Flows to it.
        min_rtt_ms: Smallest measured RTT to any of its servers.
        distance_km: Great-circle distance from the vantage point to the
            cluster's *estimated* position (the analysis does not know the
            true one).
    """

    cluster: DataCenterCluster
    num_bytes: int = 0
    num_flows: int = 0
    min_rtt_ms: float = float("inf")
    distance_km: float = 0.0

    @property
    def cluster_id(self) -> str:
        """Cluster identifier."""
        return self.cluster.cluster_id


@dataclass
class PreferredDcReport:
    """The per-dataset data-center ranking and preferred choice.

    Attributes:
        dataset_name: Dataset the report describes.
        views: All data centers with traffic, byte-descending.
        preferred_id: The preferred data center's cluster id.
        total_bytes: All bytes across views.
    """

    dataset_name: str
    views: List[DataCenterView]
    preferred_id: str
    total_bytes: int

    def view(self, cluster_id: str) -> DataCenterView:
        """View for a cluster id.

        Raises:
            KeyError: If the cluster carried no traffic here.
        """
        for v in self.views:
            if v.cluster_id == cluster_id:
                return v
        raise KeyError(f"no traffic from {cluster_id!r} in {self.dataset_name}")

    @property
    def preferred(self) -> DataCenterView:
        """The preferred data center's view."""
        return self.view(self.preferred_id)

    def byte_share(self, cluster_id: str) -> float:
        """Fraction of bytes served by a data center."""
        if self.total_bytes == 0:
            return 0.0
        return self.view(cluster_id).num_bytes / self.total_bytes

    # ------------------------------------------------------------- figures

    def cumulative_by_rtt(self) -> Series:
        """Figure 7: cumulative byte fraction vs. data-center RTT."""
        return self._cumulative(key=lambda v: v.min_rtt_ms)

    def cumulative_by_distance(self) -> Series:
        """Figure 8: cumulative byte fraction vs. data-center distance."""
        return self._cumulative(key=lambda v: v.distance_km)

    def _cumulative(self, key: Callable[[DataCenterView], float]) -> Series:
        series = Series(label=self.dataset_name)
        acc = 0
        for view in sorted(self.views, key=key):
            acc += view.num_bytes
            series.append(key(view), acc / max(1, self.total_bytes))
        return series

    def closest_k_share(self, k: int) -> float:
        """Byte share of the k geographically closest data centers.

        The paper's Figure 8 observation: for US-Campus "the five closest
        data centers provide less than 2% of all the traffic".
        """
        closest = sorted(self.views, key=lambda v: v.distance_km)[:k]
        return sum(v.num_bytes for v in closest) / max(1, self.total_bytes)


def analyze_preferred(
    dataset: Dataset,
    server_map: ServerMap,
    rtts_ms: Mapping[int, float],
    focus_ips: Optional[Sequence[int]] = None,
    vantage_point: Optional[GeoPoint] = None,
) -> PreferredDcReport:
    """Build the per-dataset preferred-data-center report.

    Args:
        dataset: The dataset to analyse.
        server_map: CBG clustering over all server addresses.
        rtts_ms: Measured min RTT per server address (Figure 2 campaign).
        focus_ips: Optional Google-focus filter (Section IV); defaults to
            every clustered server.
        vantage_point: Vantage-point coordinates (the authors know where
            their probe PC sits); defaults to the dataset's city.

    Returns:
        The :class:`PreferredDcReport`.

    Raises:
        ValueError: If no traffic survives the filter.
    """
    # Deferred: the fold module builds on this module's types.
    from repro.core.folds import TrafficAccumulator

    if vantage_point is None:
        vantage_point = dataset.vantage.city.point
    return TrafficAccumulator(dataset.table).preferred_report(
        dataset.name, server_map, rtts_ms, vantage_point, focus_ips
    )


def _pick_preferred(ordered: Sequence[DataCenterView], total_bytes: int) -> str:
    """Apply the paper's preferred-data-center rule.

    Among the *major* byte providers (those above
    :data:`MAJOR_SHARE_THRESHOLD`), the smallest-RTT one is preferred.
    With a single dominant provider this is just "the data center with
    more than 85 % of the traffic"; with two majors — the EU2 situation —
    it implements "we label the data center with the smallest RTT in EU2
    as the preferred one".
    """
    majors = [
        v for v in ordered if v.num_bytes / max(1, total_bytes) >= MAJOR_SHARE_THRESHOLD
    ]
    if not majors:
        return ordered[0].cluster_id
    return min(majors, key=lambda v: v.min_rtt_ms).cluster_id
