"""Control-flow vs. video-flow classification (Section VI-A).

"We separate flows into two groups according to their size: flows smaller
than 1000 bytes, which correspond to control flows, and the rest of the
flows, which corresponds to video flows."  The threshold sits in the kink
of the flow-size CDF (Figure 4); :func:`flow_size_cdf` regenerates that
CDF and :func:`detect_size_threshold` re-derives the kink from the data
as a sanity check on the hard-coded 1000.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.reporting.series import Cdf
from repro.trace.columnar import FlowTable, group_sum_int64

#: The paper's control/video size threshold, bytes.
CONTROL_FLOW_THRESHOLD_BYTES = 1000


@dataclass
class FlowClasses:
    """The two flow populations of a dataset.

    Attributes:
        control: Flows below the threshold (signalling).
        video: Flows at or above the threshold (content).
    """

    control: FlowTable
    video: FlowTable

    @property
    def total(self) -> int:
        """All classified flows."""
        return len(self.control) + len(self.video)

    @property
    def control_fraction(self) -> float:
        """Share of control flows.

        Raises:
            ValueError: On an empty dataset.
        """
        if self.total == 0:
            raise ValueError("no flows classified")
        return len(self.control) / self.total


def classify_flows(
    table: FlowTable,
    threshold: int = CONTROL_FLOW_THRESHOLD_BYTES,
) -> FlowClasses:
    """Split flows into control and video populations, each in table order."""
    video = table.columns().num_bytes >= threshold
    return FlowClasses(control=table.select(~video), video=table.select(video))


def flow_size_cdf(table: FlowTable) -> Cdf:
    """The CDF of flow sizes (Figure 4).

    Raises:
        ValueError: On an empty dataset.
    """
    return Cdf(table.columns().num_bytes)


def detect_size_threshold(
    table: FlowTable,
    low: float = 100.0,
    high: float = 1e6,
    bins_per_decade: int = 8,
) -> int:
    """Re-derive the control/video kink from the size distribution.

    Finds the sparsest log-spaced bin between ``low`` and ``high`` — the
    valley between the control-message mode and the video-payload mode —
    and returns its left edge.  The paper picked 1000 bytes by inspecting
    Figure 4; this automates the same judgement.

    Raises:
        ValueError: With fewer than 10 flows.
    """
    nbytes = table.columns().num_bytes
    sizes, counts_per_size = np.unique(nbytes[nbytes > 0], return_counts=True)
    if counts_per_size.sum() < 10:
        raise ValueError("need at least 10 flows to detect a threshold")
    log_low, log_high = math.log10(low), math.log10(high)
    num_bins = int((log_high - log_low) * bins_per_decade)
    # math.log10 once per distinct size: numpy's log10 may round the last
    # bit differently, which could move a size across a bin edge.
    position = (np.array([math.log10(size) for size in sizes.tolist()]) - log_low) / (
        log_high - log_low
    )
    inside = (position >= 0.0) & (position < 1.0)
    counts = group_sum_int64(
        (position[inside] * num_bins).astype(np.int64), counts_per_size[inside], num_bins
    ).tolist()
    # The valley: the emptiest bin between the two modes.
    first_nonzero = next((i for i, c in enumerate(counts) if c > 0), 0)
    last_nonzero = next(
        (num_bins - 1 - i for i, c in enumerate(reversed(counts)) if c > 0), num_bins - 1
    )
    if first_nonzero >= last_nonzero:
        return CONTROL_FLOW_THRESHOLD_BYTES
    valley = min(range(first_nonzero, last_nonzero + 1), key=lambda i: counts[i])
    edge = 10 ** (log_low + valley * (log_high - log_low) / num_bins)
    return int(edge)
