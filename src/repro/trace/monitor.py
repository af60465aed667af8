"""The Tstat-like passive edge monitor.

Sits at the vantage point's edge, observes every flow the hosted clients
exchange with the outside, classifies YouTube video traffic and keeps
each flow's log fields.  Classification fidelity is modelled too: a tiny
fraction of flows is missed (DPI on sampled/encrypted/teardown-truncated
connections is never perfect), so analysis code cannot assume it sees
literally every flow of a session.
"""

from __future__ import annotations

import math
import random
from operator import itemgetter
from typing import Iterable, List

from repro.cdn.cluster import Flow
from repro.net.topology import VantagePoint
from repro.trace.columnar import FlowTable, seal_rows
from repro.trace.records import Dataset


#: Getters of a :class:`~repro.trace.records.FlowRecord`'s fields out of
#: a :data:`~repro.cdn.cluster.Flow` tuple.
_FLOW_FIELDS = tuple(itemgetter(index) for index in (2, 3, 4, 0, 1, 5, 6))


class EdgeMonitor:
    """Collects a :class:`~repro.trace.records.Dataset` at one vantage point.

    The monitor keeps the flow tuples it classifies.  :meth:`seal` turns
    the kept flows that start before an instant into columns, so a week
    can be read window by window as it is served, and :meth:`finish`
    turns the rest into the dataset: no per-flow record object is built.

    Args:
        vantage: The monitored network.
        miss_probability: Chance an individual flow escapes classification.
        seed: RNG seed for the miss process.
    """

    def __init__(
        self,
        vantage: VantagePoint,
        miss_probability: float = 0.002,
        seed: int = 0,
    ):
        if not 0.0 <= miss_probability < 1.0:
            raise ValueError("miss_probability must be in [0, 1)")
        self._vantage = vantage
        self._miss_probability = miss_probability
        self._rng = random.Random(seed)
        self._flows: List[Flow] = []
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
        for flow in flows:
            self.observed += 1
            if miss_probability and draw() < miss_probability:
                self.missed += 1
                continue
            self._recorded += 1
            keep(flow)

    def seal(self, before_s: float) -> FlowTable:
        """The kept flows that start before ``before_s``, as columns.

        :func:`~repro.trace.columnar.seal_rows` over the kept flows: their
        rows are in stable ``(t_start, t_end)`` order, flows that tie keep
        the order they were observed in, and later flows stay kept.

        Raises:
            ValueError: If a flow ends before it starts, or has a
                negative byte count.
        """
        return seal_rows(self._flows, before_s, _FLOW_FIELDS)

    def finish(self, name: str, duration_s: float) -> Dataset:
        """Close collection and return the dataset of every kept flow.

        Raises:
            ValueError: As :meth:`seal` does.
        """
        table = self.seal(math.inf)
        return Dataset(name=name, vantage=self._vantage, table=table, duration_s=duration_s)
