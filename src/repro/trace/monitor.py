"""The Tstat-like passive edge monitor.

Sits at the vantage point's edge, observes every flow the hosted clients
exchange with the outside, classifies YouTube video traffic and appends
flow records.  Classification fidelity is modelled too: a tiny fraction of
flows is missed (DPI on sampled/encrypted/teardown-truncated connections is
never perfect), so analysis code cannot assume it sees literally every flow
of a session.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, List, Optional

from repro.cdn.cluster import Flow
from repro.net.topology import VantagePoint
from repro.trace.records import Dataset, FlowRecord


class EdgeMonitor:
    """Collects a :class:`~repro.trace.records.Dataset` at one vantage point.

    Args:
        vantage: The monitored network.
        miss_probability: Chance an individual flow escapes classification.
        seed: RNG seed for the miss process.
        sink: Live-emit mode — classified records are handed to this
            callable instead of being retained, so a streaming consumer
            sees them with bounded memory.  The miss RNG is consumed
            identically either way, which is what keeps a streamed run
            byte-identical to a batch run of the same world.  A sinked
            monitor cannot :meth:`finish`.
    """

    def __init__(
        self,
        vantage: VantagePoint,
        miss_probability: float = 0.002,
        seed: int = 0,
        sink: Optional[Callable[[FlowRecord], None]] = None,
    ):
        if not 0.0 <= miss_probability < 1.0:
            raise ValueError("miss_probability must be in [0, 1)")
        self._vantage = vantage
        self._miss_probability = miss_probability
        self._rng = random.Random(seed)
        self._records: List[FlowRecord] = []
        self._sink = sink
        self._recorded = 0
        self.observed = 0
        self.missed = 0

    def observe(self, flows: Iterable[Flow]) -> None:
        """Observe flows crossing the edge; record each one unless missed.

        Args:
            flows: :data:`~repro.cdn.cluster.Flow` tuples (a
                :class:`~repro.cdn.cluster.FlowEvent`'s fields, in order),
                in the order they cross the edge: one miss draw each.
        """
        miss_probability = self._miss_probability
        draw = self._rng.random
        keep = self._records.append if self._sink is None else self._sink
        for t_start, t_end, client_ip, server_ip, num_bytes, video_id, label, _ in flows:
            self.observed += 1
            if miss_probability and draw() < miss_probability:
                self.missed += 1
                continue
            record = FlowRecord(client_ip, server_ip, num_bytes, t_start, t_end, video_id, label)
            self._recorded += 1
            keep(record)

    def finish(self, name: str, duration_s: float) -> Dataset:
        """Close collection and return the dataset (records time-sorted).

        Raises:
            RuntimeError: For a sinked (live-emit) monitor, which retains
                no records to assemble a dataset from.
        """
        if self._sink is not None:
            raise RuntimeError("a sinked monitor retains no records; consume its stream instead")
        self._records.sort(key=lambda r: (r.t_start, r.t_end))
        return Dataset(
            name=name,
            vantage=self._vantage,
            records=list(self._records),
            duration_s=duration_s,
        )
