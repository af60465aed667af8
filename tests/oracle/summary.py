"""Spec of :mod:`repro.core.summary`: Table I from the record list."""

from __future__ import annotations

from repro.core.summary import DatasetSummary
from repro.trace.records import Dataset


def summarize(dataset: Dataset) -> DatasetSummary:
    """Spec of :func:`repro.core.summary.summarize`."""
    return DatasetSummary(
        name=dataset.name,
        flows=len(dataset),
        volume_bytes=dataset.total_bytes,
        num_servers=len(dataset.server_ips),
        num_clients=len(dataset.client_ips),
    )
