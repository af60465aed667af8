"""Dataset traffic summary (Table I)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.reporting.tables import TextTable, format_bytes
from repro.trace.records import Dataset


@dataclass(frozen=True)
class DatasetSummary:
    """One Table I row.

    Attributes:
        name: Dataset name.
        flows: Total YouTube flows.
        volume_bytes: Total downloaded bytes.
        num_servers: Distinct server addresses.
        num_clients: Distinct client addresses.
    """

    name: str
    flows: int
    volume_bytes: int
    num_servers: int
    num_clients: int

    @property
    def volume_gb(self) -> float:
        """Volume in gigabytes (Table I's unit)."""
        return self.volume_bytes / 1e9


def summarize(dataset: Dataset) -> DatasetSummary:
    """Compute the Table I row for one dataset."""
    # Deferred: the fold module builds on this module's types.
    from repro.core.folds import TrafficAccumulator

    return TrafficAccumulator(dataset.table).summary(dataset.name)


def render_table1(summaries: Iterable[DatasetSummary]) -> str:
    """Render Table I for a set of datasets."""
    table = TextTable(
        ["Dataset", "YouTube flows", "Volume [GB]", "#Servers", "#Clients"],
        title="TABLE I — TRAFFIC SUMMARY FOR THE DATASETS",
    )
    for s in summaries:
        table.add_row(s.name, s.flows, format_bytes(s.volume_bytes), s.num_servers, s.num_clients)
    return table.render()
