"""Spec of :mod:`repro.core.subnets`: Figure 12, one flow at a time."""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.preferred import PreferredDcReport
from repro.core.subnets import SubnetShare
from repro.geoloc.clustering import ServerMap
from repro.trace.records import Dataset, FlowRecord

from tests.oracle.nonpreferred import video_flow_preference


def subnet_shares(
    dataset: Dataset,
    report: PreferredDcReport,
    server_map: ServerMap,
    records: Sequence[FlowRecord],
) -> List[SubnetShare]:
    """Spec of :func:`repro.core.subnets.subnet_shares` over ``records``."""
    split = video_flow_preference(records, report, server_map)
    all_flows = split[True] + split[False]
    if not all_flows:
        raise ValueError("no classifiable video flows")
    nonpref_flows = split[False]

    def count_by_subnet(flows: Sequence[FlowRecord]) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for flow in flows:
            subnet = dataset.vantage.subnet_of(flow.src_ip)
            if subnet is None:
                continue
            counts[subnet.name] = counts.get(subnet.name, 0) + 1
        return counts

    all_counts = count_by_subnet(all_flows)
    nonpref_counts = count_by_subnet(nonpref_flows)
    total_all = max(1, sum(all_counts.values()))
    total_nonpref = max(1, sum(nonpref_counts.values()))

    shares: List[SubnetShare] = []
    for subnet in dataset.vantage.subnets:
        shares.append(
            SubnetShare(
                subnet_name=subnet.name,
                all_share=all_counts.get(subnet.name, 0) / total_all,
                nonpreferred_share=nonpref_counts.get(subnet.name, 0) / total_nonpref,
            )
        )
    return shares
