"""Per-subnet non-preferred access shares (Section VII-B, Figure 12).

"Each set of bars corresponds to an internal subnet at US-Campus.  The bars
... show the fraction of accesses to non-preferred data centers, and the
fraction of all accesses, which may be attributed to the subnet.  Net-3
shows a clear bias: though this subnet only accounts for around 4% of the
total video flows ... it accounts for almost 50% of all the flows served by
non-preferred data centers."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.nonpreferred import preference_masks
from repro.core.preferred import PreferredDcReport
from repro.geoloc.clustering import ServerMap
from repro.trace.columnar import FlowTable
from repro.trace.records import Dataset


@dataclass(frozen=True)
class SubnetShare:
    """One Figure 12 bar pair.

    Attributes:
        subnet_name: Internal subnet label.
        all_share: The subnet's share of all video flows.
        nonpreferred_share: Its share of the non-preferred video flows.
    """

    subnet_name: str
    all_share: float
    nonpreferred_share: float

    @property
    def bias(self) -> float:
        """How over-represented the subnet is among non-preferred flows."""
        if self.all_share == 0:
            return 0.0
        return self.nonpreferred_share / self.all_share


def subnet_shares(
    dataset: Dataset,
    report: PreferredDcReport,
    server_map: ServerMap,
    table: Optional[FlowTable] = None,
) -> List[SubnetShare]:
    """Compute Figure 12's bars for a dataset.

    Args:
        dataset: The dataset (its subnet plan attributes client addresses).
        report: Preferred-data-center report.
        server_map: CBG clustering.
        table: Flows to analyse (defaults to the dataset's own; pass the
            focus-filtered table to match the paper).

    Returns:
        One :class:`SubnetShare` per subnet, in the vantage point's order.

    Raises:
        ValueError: With no classifiable video flows.
    """
    if table is None:
        table = dataset.table
    is_video, verdict = preference_masks(table, report, server_map)
    classified = is_video & (verdict != -1)
    if not classified.any():
        raise ValueError("no classifiable video flows")
    subnets = dataset.vantage.subnets
    slot = {subnet.name: i for i, subnet in enumerate(subnets)}

    def slot_of(client_ip: int) -> int:
        subnet = dataset.vantage.subnet_of(client_ip)
        return -1 if subnet is None else slot[subnet.name]

    # Each distinct client is placed in the subnet plan once.
    clients, client_code = np.unique(table.columns().src_ip[classified], return_inverse=True)
    flow_slot = np.array([slot_of(ip) for ip in clients.tolist()], dtype=np.int64)[client_code]
    in_plan = flow_slot >= 0
    nonpref = in_plan & (verdict[classified] == 0)
    all_counts = np.bincount(flow_slot[in_plan], minlength=len(subnets)).tolist()
    nonpref_counts = np.bincount(flow_slot[nonpref], minlength=len(subnets)).tolist()
    total_all = max(1, sum(all_counts))
    total_nonpref = max(1, sum(nonpref_counts))
    return [
        SubnetShare(
            subnet_name=subnet.name,
            all_share=all_counts[slot[subnet.name]] / total_all,
            nonpreferred_share=nonpref_counts[slot[subnet.name]] / total_nonpref,
        )
        for subnet in subnets
    ]


def most_biased_subnet(shares: Sequence[SubnetShare]) -> SubnetShare:
    """The subnet most over-represented among non-preferred flows.

    Raises:
        ValueError: With no subnets.
    """
    if not shares:
        raise ValueError("no subnets")
    return max(shares, key=lambda s: s.bias)
