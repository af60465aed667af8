"""The Tstat-like passive edge monitor.

Sits at the vantage point's edge, observes every flow the hosted clients
exchange with the outside, classifies YouTube video traffic and keeps
each flow's log fields.  Classification fidelity is modelled too: a tiny
fraction of flows is missed (DPI on sampled/encrypted/teardown-truncated
connections is never perfect), so analysis code cannot assume it sees
literally every flow of a session.
"""

from __future__ import annotations

import random
from operator import itemgetter
from typing import Callable, Iterable, List, Optional

import numpy as np

from repro.cdn.cluster import Flow
from repro.net.topology import VantagePoint
from repro.trace.columnar import FlowTable
from repro.trace.records import Dataset, FlowRecord


#: Getters of a :class:`~repro.trace.records.FlowRecord`'s fields out of
#: a :data:`~repro.cdn.cluster.Flow` tuple.
_FLOW_FIELDS = tuple(itemgetter(index) for index in (2, 3, 4, 0, 1, 5, 6))


class EdgeMonitor:
    """Collects a :class:`~repro.trace.records.Dataset` at one vantage point.

    In batch mode the monitor keeps the flow tuples it classifies, and
    :meth:`finish` turns them into the dataset's columns: no per-flow
    record object is built.

    Args:
        vantage: The monitored network.
        miss_probability: Chance an individual flow escapes classification.
        seed: RNG seed for the miss process.
        sink: Live-emit mode — each classified flow is handed to this
            callable as a :class:`~repro.trace.records.FlowRecord` instead
            of being retained, so a streaming consumer sees them with
            bounded memory.  The miss RNG is consumed identically either
            way, which is what keeps a streamed run byte-identical to a
            batch run of the same world.  A sinked monitor cannot
            :meth:`finish`.
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
        self._flows: List[Flow] = []
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
        keep = self._flows.append
        sink = self._sink
        for flow in flows:
            self.observed += 1
            if miss_probability and draw() < miss_probability:
                self.missed += 1
                continue
            self._recorded += 1
            if sink is None:
                keep(flow)
            else:
                t_start, t_end, client_ip, server_ip, num_bytes, video_id, label, _ = flow
                sink(FlowRecord(client_ip, server_ip, num_bytes, t_start, t_end, video_id, label))

    def finish(self, name: str, duration_s: float) -> Dataset:
        """Close collection and return the dataset.

        Its rows are in stable ``(t_start, t_end)`` order: flows that tie
        keep the order they were observed in.  The kept flow tuples are
        released once their columns are built.

        Raises:
            RuntimeError: For a sinked (live-emit) monitor, which retains
                no flows to assemble a dataset from.
            ValueError: If a flow ends before it starts, or has a
                negative byte count.
        """
        if self._sink is not None:
            raise RuntimeError("a sinked monitor retains no records; consume its stream instead")
        flows, self._flows = self._flows, []
        table = FlowTable.from_rows(flows, _FLOW_FIELDS)
        del flows  # the columns hold the week now
        cols = table.columns()
        # lexsort is stable: flows that tie keep their observation order.
        table = table.select(np.lexsort((cols.t_end, cols.t_start)))
        return Dataset(name=name, vantage=self._vantage, table=table, duration_s=duration_s)
