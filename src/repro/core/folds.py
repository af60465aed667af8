"""The passive-trace folds behind Tables I-II, Section VI-B and Figure 9.

Each fold consumes :class:`~repro.trace.columnar.FlowTable` batches in
record order and keeps state sized by *distinct entities* (servers,
clients, hours) — never by the flow count.  Batch analysis folds a whole
dataset as one batch and the streamed study folds sealed windows; both
read the same views, so there is one implementation of each aggregate:

* :class:`TrafficAccumulator` — Table I scalars and per-server byte/flow/
  video-flow totals in first-occurrence order.  Its views are the
  Table I row, the Table II AS breakdown, the Section IV focus list, the
  Section VI-B preferred-data-center report and the Figure 9/10
  non-preferred fraction.
* :class:`HourlyShareAccumulator` — per-hour, per-server video-flow
  counts, O(servers x hours); its view is the Figure 9 CDF.
* :class:`EdgeCloudAccumulator` — per-(client subnet x server prefix)
  totals, the monitor's epoch snapshots.

Folding is exact at any batch boundary: totals are integers, and the
per-server dicts keep first-occurrence order, which is the order the
preferred-DC rule creates views in and tie-breaks by.  The parity tests
hold the folded state to the record-at-a-time spec in
``tests/oracle/accumulators.py``.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro.core import asmap
from repro.core.flows import CONTROL_FLOW_THRESHOLD_BYTES
from repro.core.preferred import DataCenterView, PreferredDcReport, _pick_preferred
from repro.core.summary import DatasetSummary
from repro.geo.coords import GeoPoint, haversine_km
from repro.geoloc.clustering import DataCenterCluster, ServerMap
from repro.net.asn import AsRegistry, GOOGLE_ASN
from repro.reporting.series import Cdf
from repro.trace.columnar import FlowTable, group_sum_int64

#: Composite (server, hour) key stride for the hourly kernel; hours stay
#: far below it for any plausible trace length.
_HOUR_STRIDE = 1 << 20


def _clustered(
    items: Iterable[Tuple[int, object]],
    server_map: ServerMap,
    focus_ips: Optional[Iterable[int]],
) -> Iterator[Tuple[int, object, DataCenterCluster]]:
    """``(ip, state, cluster)`` for the focus servers CBG clustered."""
    keep = set(focus_ips) if focus_ips is not None else None
    for ip, state in items:
        if keep is not None and ip not in keep:
            continue
        cluster = server_map.by_ip.get(ip)
        if cluster is not None:
            yield ip, state, cluster


class _ServerStats:
    """Running totals for one server address."""

    __slots__ = ("num_bytes", "num_flows", "video_flows")

    def __init__(self):
        self.num_bytes = 0
        self.num_flows = 0
        self.video_flows = 0


class TrafficAccumulator:
    """Table I/II/VI-B state for one dataset.

    Args:
        table: A first batch to fold in (a whole dataset, for batch use).

    Attributes:
        flows: Total flows seen.
        total_bytes: Total bytes seen.
    """

    def __init__(self, table: Optional[FlowTable] = None):
        self.flows = 0
        self.total_bytes = 0
        self._clients: Set[int] = set()
        # Insertion order = first occurrence in record order; the
        # preferred-DC view replays it for view-creation order and
        # stable-sort tie behaviour.
        self._servers: Dict[int, _ServerStats] = {}
        if table is not None:
            self.observe(table)

    def observe(self, table: FlowTable) -> None:
        """Fold the next batch of records in."""
        if len(table) == 0:
            return
        cols = table.columns()
        self.flows += len(table)
        self.total_bytes += int(cols.num_bytes.sum())
        self._clients.update(np.unique(cols.src_ip).tolist())
        uniq, first_idx, inverse = np.unique(cols.dst_ip, return_index=True, return_inverse=True)
        bytes_per = group_sum_int64(inverse, cols.num_bytes, len(uniq))
        flows_per = np.bincount(inverse, minlength=len(uniq))
        video_per = np.bincount(
            inverse[cols.num_bytes >= CONTROL_FLOW_THRESHOLD_BYTES],
            minlength=len(uniq),
        )
        for j in np.argsort(first_idx, kind="stable").tolist():
            stats = self._stats(int(uniq[j]))
            stats.num_bytes += int(bytes_per[j])
            stats.num_flows += int(flows_per[j])
            stats.video_flows += int(video_per[j])

    def _stats(self, ip: int) -> _ServerStats:
        stats = self._servers.get(ip)
        if stats is None:
            stats = self._servers[ip] = _ServerStats()
        return stats

    # ------------------------------------------------------------- views

    def server_ips(self) -> List[int]:
        """Distinct server addresses, sorted."""
        return sorted(self._servers)

    def summary(self, name: str) -> DatasetSummary:
        """The Table I row."""
        return DatasetSummary(
            name=name,
            flows=self.flows,
            volume_bytes=self.total_bytes,
            num_servers=len(self._servers),
            num_clients=len(self._clients),
        )

    def as_breakdown(
        self, name: str, vantage_asn: int, registry: AsRegistry
    ) -> asmap.AsBreakdown:
        """The Table II row.

        Raises:
            ValueError: With no flows.
        """
        if self.flows == 0:
            raise ValueError(f"dataset {name} is empty")
        server_counts = {g: 0 for g in asmap.AS_GROUPS}
        byte_counts = {g: 0 for g in asmap.AS_GROUPS}
        for ip in self.server_ips():
            asn = registry.asn_of(ip)
            group = asmap._group_of(asn, vantage_asn) if asn is not None else "others"
            server_counts[group] += 1
            byte_counts[group] += self._servers[ip].num_bytes
        total_bytes = max(1, sum(byte_counts.values()))
        return asmap.AsBreakdown(
            name=name,
            server_fractions={
                g: server_counts[g] / len(self._servers) for g in asmap.AS_GROUPS
            },
            byte_fractions={g: byte_counts[g] / total_bytes for g in asmap.AS_GROUPS},
        )

    def focus_ips(self, vantage_asn: int, registry: AsRegistry) -> List[int]:
        """The Section IV focus list: Google-AS and in-ISP servers, sorted."""
        keep: List[int] = []
        for ip in self.server_ips():
            asn = registry.asn_of(ip)
            if asn == GOOGLE_ASN or (asn is not None and asn == vantage_asn):
                keep.append(ip)
        return keep

    def preferred_report(
        self,
        name: str,
        server_map: ServerMap,
        rtts_ms: Mapping[int, float],
        vantage_point: GeoPoint,
        focus_ips: Optional[Iterable[int]] = None,
    ) -> PreferredDcReport:
        """The Section VI-B report.

        Per-server totals are replayed in first-occurrence order, so views
        are created — and the byte-descending stable sort and the
        majors/min-RTT rule tie-break — in record order.

        Args:
            focus_ips: Servers to keep (default: every clustered server).

        Raises:
            ValueError: If no clustered traffic survives the filter.
        """
        views: Dict[str, DataCenterView] = {}
        total_bytes = 0
        for ip, stats, cluster in _clustered(self._servers.items(), server_map, focus_ips):
            view = views.get(cluster.cluster_id)
            if view is None:
                view = DataCenterView(
                    cluster=cluster,
                    distance_km=haversine_km(vantage_point, cluster.estimate),
                )
                views[cluster.cluster_id] = view
            view.num_bytes += stats.num_bytes
            view.num_flows += stats.num_flows
            total_bytes += stats.num_bytes
            rtt = rtts_ms.get(ip)
            if rtt is not None and rtt < view.min_rtt_ms:
                view.min_rtt_ms = rtt
        if not views:
            raise ValueError(f"no clustered traffic in {name}")
        ordered = sorted(views.values(), key=lambda v: -v.num_bytes)
        return PreferredDcReport(
            dataset_name=name,
            views=ordered,
            preferred_id=_pick_preferred(ordered, total_bytes),
            total_bytes=total_bytes,
        )

    def nonpreferred_fraction(
        self,
        report: PreferredDcReport,
        server_map: ServerMap,
        focus_ips: Optional[Iterable[int]] = None,
    ) -> float:
        """Share of clustered video flows served by non-preferred data centers.

        Raises:
            ValueError: With no classifiable video flows.
        """
        preferred = 0
        nonpreferred = 0
        for _, stats, cluster in _clustered(self._servers.items(), server_map, focus_ips):
            if cluster.cluster_id == report.preferred_id:
                preferred += stats.video_flows
            else:
                nonpreferred += stats.video_flows
        total = preferred + nonpreferred
        if total == 0:
            raise ValueError("no classifiable video flows")
        return nonpreferred / total


class SparseHoursError(ValueError):
    """No hour of a week has enough flows for a per-hour share.

    A traffic scale too small for Figure 9 raises it, not a fault.
    """


class HourlyShareAccumulator:
    """Per-hour, per-server video-flow counts (Figure 9's raw material).

    Args:
        table: A first batch to fold in (a whole dataset, for batch use).
    """

    def __init__(self, table: Optional[FlowTable] = None):
        self._counts: Dict[int, Dict[int, int]] = {}  # ip -> hour -> count
        if table is not None:
            self.observe(table)

    def observe(self, table: FlowTable) -> None:
        """Fold the next batch of records in."""
        if len(table) == 0:
            return
        cols = table.columns()
        video = cols.num_bytes >= CONTROL_FLOW_THRESHOLD_BYTES
        key = cols.dst_ip[video] * _HOUR_STRIDE + cols.hour[video]
        uniq, first, counts = np.unique(key, return_index=True, return_counts=True)
        # Replay in first-occurrence order: servers and hours enter the
        # dicts in the order the batch's flows first reach them.
        for j in np.argsort(first, kind="stable").tolist():
            ip, hour = divmod(int(uniq[j]), _HOUR_STRIDE)
            hours = self._counts.setdefault(ip, {})
            hours[hour] = hours.get(hour, 0) + int(counts[j])

    def cdf(
        self,
        report: PreferredDcReport,
        server_map: ServerMap,
        num_hours: int,
        focus_ips: Optional[Iterable[int]] = None,
        min_flows_per_hour: int = 5,
    ) -> Cdf:
        """Figure 9: CDF of the hourly non-preferred video-flow fraction.

        Hours outside ``[0, num_hours)`` and hours with fewer than
        ``min_flows_per_hour`` clustered video flows are skipped.

        Raises:
            SparseHoursError: If no hour has enough flows.
        """
        numerator = [0] * num_hours
        denominator = [0] * num_hours
        for _, hours, cluster in _clustered(self._counts.items(), server_map, focus_ips):
            nonpreferred = cluster.cluster_id != report.preferred_id
            for hour, count in hours.items():
                if not 0 <= hour < num_hours:
                    continue
                denominator[hour] += count
                if nonpreferred:
                    numerator[hour] += count
        fractions = [
            numerator[h] / denominator[h]
            for h in range(num_hours)
            if denominator[h] >= min_flows_per_hour
        ]
        if not fractions:
            raise SparseHoursError(
                f"no hour has {min_flows_per_hour} or more video flows"
            )
        return Cdf(fractions)


class EdgeCloudAccumulator:
    """Per-(client subnet x server /24) volume totals for epoch snapshots.

    The raw material of :mod:`repro.monitor`'s edge-cloud snapshots: fold
    each flow's bytes into the cell keyed by the client's subnet name and
    the server address's ``/prefix_len`` network.  State is sized by
    distinct (subnet, prefix) pairs — a few dozen for any scenario —
    never by the flow count, so month-long worlds stream through without
    materialising.

    All totals are exact integers accumulated in pure python (cells are
    too few for the columnar kernels to matter), so snapshots are
    byte-identical in a pool or in-process.

    Args:
        subnet_of: Client address -> subnet name (``None`` to skip the
            record — a flow from outside the vantage's address plan).
        prefix_len: Server-side aggregation prefix length (default 24,
            the paper's "servers in the same /24 cluster together").
    """

    def __init__(self, subnet_of: Callable[[int], Optional[str]], prefix_len: int = 24):
        if not 0 < prefix_len <= 32:
            raise ValueError("prefix_len must be in (0, 32]")
        self._subnet_of = subnet_of
        self._shift = 32 - prefix_len
        self.prefix_len = prefix_len
        self._cells: Dict[tuple, List[int]] = {}  # (subnet, prefix) -> [bytes, flows]
        self._rep_ip: Dict[int, int] = {}  # prefix -> lowest server ip seen
        self.bytes_total = 0
        self.flows_total = 0

    def observe(self, table: FlowTable) -> None:
        """Fold the next batch of records in."""
        for record in table.records:
            subnet = self._subnet_of(record.src_ip)
            if subnet is None:
                continue
            prefix = record.dst_ip >> self._shift
            cell = self._cells.setdefault((subnet, prefix), [0, 0])
            cell[0] += record.num_bytes
            cell[1] += 1
            self.bytes_total += record.num_bytes
            self.flows_total += 1
            rep = self._rep_ip.get(prefix)
            if rep is None or record.dst_ip < rep:
                self._rep_ip[prefix] = record.dst_ip

    def cells(self) -> List[tuple]:
        """Sorted ``(subnet, prefix, num_bytes, num_flows)`` rows."""
        return [
            (subnet, prefix, totals[0], totals[1])
            for (subnet, prefix), totals in sorted(self._cells.items())
        ]

    def prefixes(self) -> List[int]:
        """Sorted distinct server prefixes seen."""
        return sorted(self._rep_ip)

    def representative_ip(self, prefix: int) -> int:
        """The lowest server address observed inside one prefix.

        Raises:
            KeyError: For prefixes never seen.
        """
        return self._rep_ip[prefix]
