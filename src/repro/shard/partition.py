"""Deterministic (vantage, time-window) partitioning of flow tables.

Simulated (and parsed) datasets list flows globally sorted by ``t_start``,
so a tumbling-window partition — the same ``[k*w, (k+1)*w)`` windows the
PR-6 streaming layer uses — cuts the table into **contiguous row ranges**.
That contiguity is the whole trick: a shard is a zero-copy column slice,
and concatenating shards in key order reproduces the batch record order
exactly, which is what lets the merge operators promise byte-identical
results.

Shard keys are pure values (dataset name, window index, bounds) with a
``cache_fingerprint()``, so per-shard analysis artifacts slot into the
artifact cache under stable keys — reshard at the same grain tomorrow and
every shard is a warm hit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.trace.columnar import FlowTable


@dataclass(frozen=True)
class ShardKey:
    """Identity of one (vantage, time-window) shard.

    Attributes:
        dataset: Vantage-point dataset name (e.g. ``"US-Campus"``).
        index: Tumbling-window index ``k`` (window ``[k*w, (k+1)*w)``).
        t_lo: Window lower bound, inclusive.
        t_hi: Window upper bound, exclusive.
    """

    dataset: str
    index: int
    t_lo: float
    t_hi: float

    @property
    def label(self) -> str:
        return f"{self.dataset}/w{self.index}"

    def cache_fingerprint(self):
        """Stable identity for :func:`repro.artifacts.keys.canonicalize`."""
        return {
            "dataset": self.dataset,
            "index": self.index,
            "t_lo": self.t_lo,
            "t_hi": self.t_hi,
        }


@dataclass(frozen=True)
class Shard:
    """One shard: a key plus its contiguous row range ``[lo, hi)``."""

    key: ShardKey
    lo: int
    hi: int

    def __len__(self) -> int:
        return self.hi - self.lo


def partition_table(table: FlowTable, window_s: float, dataset: str) -> List[Shard]:
    """Cut a time-sorted table into tumbling-window shards.

    Args:
        table: Flow table whose records are sorted by ``t_start`` (both
            the simulator and the log parser emit this order).
        window_s: Shard window width in seconds (e.g. ``86400.0`` for
            one shard per day).
        dataset: Dataset name baked into every :class:`ShardKey`.

    Returns:
        Non-empty shards in time order.  Empty windows are skipped —
        they contribute nothing to any merge — so shard indices may be
        sparse.

    Raises:
        ValueError: For a non-positive window, or if ``t_start`` is not
            non-decreasing (the contiguity precondition).
    """
    if window_s <= 0:
        raise ValueError(f"window_s must be positive, got {window_s}")
    n = len(table)
    if n == 0:
        return []
    t_start = table.columns().t_start
    if len(t_start) > 1 and bool(np.any(t_start[1:] < t_start[:-1])):
        raise ValueError("records are not sorted by t_start")
    first = math.floor(float(t_start[0]) / window_s)
    last = math.floor(float(t_start[-1]) / window_s)
    # One searchsorted over all window boundaries: cut[i] is the first
    # row at or past boundary (first + i) * window_s.
    bounds = (np.arange(first, last + 2, dtype=np.float64)) * window_s
    cuts = np.searchsorted(t_start, bounds, side="left")
    shards = []
    for i in range(len(bounds) - 1):
        lo, hi = int(cuts[i]), int(cuts[i + 1])
        if lo == hi:
            continue
        index = first + i
        key = ShardKey(dataset=dataset, index=index,
                       t_lo=index * window_s, t_hi=(index + 1) * window_s)
        shards.append(Shard(key=key, lo=lo, hi=hi))
    return shards
