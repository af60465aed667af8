"""Per-epoch edge-cloud snapshots, folded window by window.

One :class:`EpochSnapshot` is everything the monitor keeps of an epoch:
per-(client subnet x server /24) byte/flow totals folded online by an
:class:`~repro.core.folds.EdgeCloudAccumulator` from the windows the
edge monitor seals as the epoch is served
(:func:`repro.sim.engine.sealed_windows`), plus one min-filtered
RTT measurement per observed server prefix (a fault-aware ping campaign
— under an active :class:`~repro.faults.plan.FaultPlan`, lost probes
leave the prefix's RTT *absent* and are tallied as degradation, never
silently substituted).  Memory is bounded by distinct (subnet, prefix)
cells and one open window, so month-long monitored worlds never
materialise a full record list.

Snapshots are plain, canonically-serialisable data: sorted integer
cells, RTTs rounded to fixed precision, a stable JSON form and a sha256
digest over it — the unit the golden fixture pins and the
``"monitor/epoch"`` cache stage stores.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro import obs
from repro.core.folds import EdgeCloudAccumulator
from repro.geoloc.probing import CampaignJob, run_campaigns
from repro.sim.engine import sealed_windows
from repro.sim.scenarios import ScenarioWorld

#: Decimal places RTT centroids are rounded to before storage; fixed so
#: snapshot bytes (and digests) are stable across platforms.
RTT_DECIMALS = 3

#: Tumbling-window width of the ingest pass, in seconds (never visible in
#: a snapshot: windows only bound memory).
_INGEST_WINDOW_S = 3600.0


@dataclass(frozen=True)
class EpochSnapshot:
    """The monitor's view of one epoch.

    Attributes:
        name: Scenario name the epoch was simulated from.
        epoch: Epoch index (0-based).
        duration_s: Epoch length in seconds.
        prefix_len: Server-side aggregation prefix length.
        cells: Sorted ``(subnet, prefix, num_bytes, num_flows)`` rows.
        rtt_ms: Sorted ``(prefix, min_rtt_ms)`` pairs; prefixes whose
            probe was lost (fault plans) are absent.
        bytes_total: Bytes over all cells.
        flows_total: Flows over all cells.
        probes_lost: Prefix probes lost to the ambient fault plan.
    """

    name: str
    epoch: int
    duration_s: float
    prefix_len: int
    cells: Tuple[Tuple[str, int, int, int], ...]
    rtt_ms: Tuple[Tuple[int, float], ...]
    bytes_total: int
    flows_total: int
    probes_lost: int

    # ----------------------------------------------------------- derivations
    def prefix_shares(self) -> Dict[int, float]:
        """Byte share per server prefix (empty snapshot -> empty dict)."""
        if self.bytes_total == 0:
            return {}
        shares: Dict[int, float] = {}
        for _subnet, prefix, num_bytes, _flows in self.cells:
            shares[prefix] = shares.get(prefix, 0.0) + num_bytes / self.bytes_total
        return shares

    def subnet_shares(self) -> Dict[str, float]:
        """Byte share per client subnet."""
        if self.bytes_total == 0:
            return {}
        shares: Dict[str, float] = {}
        for subnet, _prefix, num_bytes, _flows in self.cells:
            shares[subnet] = shares.get(subnet, 0.0) + num_bytes / self.bytes_total
        return shares

    # ------------------------------------------------------------- identity
    def to_json_dict(self) -> Dict:
        return {
            "name": self.name,
            "epoch": self.epoch,
            "duration_s": self.duration_s,
            "prefix_len": self.prefix_len,
            "cells": [list(cell) for cell in self.cells],
            "rtt_ms": [[prefix, rtt] for prefix, rtt in self.rtt_ms],
            "bytes_total": self.bytes_total,
            "flows_total": self.flows_total,
            "probes_lost": self.probes_lost,
        }

    def to_json(self) -> str:
        """Canonical JSON text: key-sorted, stable across processes."""
        return json.dumps(self.to_json_dict(), sort_keys=True)

    def digest(self) -> str:
        """sha256 over the canonical JSON (the golden-fixture unit)."""
        return hashlib.sha256(self.to_json().encode("ascii")).hexdigest()


def build_epoch_snapshot(
    world: ScenarioWorld,
    epoch: int,
    rtt_seed: int,
    probes: int = 4,
    prefix_len: int = 24,
) -> EpochSnapshot:
    """Serve one epoch's world window by window and condense it into a snapshot.

    Args:
        world: The epoch's built world (its ``duration_s`` is the epoch
            length).
        epoch: Epoch index, for labelling and the stored snapshot.
        rtt_seed: Seed for the prefix ping campaign's private RNG.
        probes: Pings per prefix measurement (minimum is kept).
        prefix_len: Server-side aggregation prefix length.

    Returns:
        The finished :class:`EpochSnapshot`.
    """
    vantage = world.vantage
    name = world.spec.name

    def subnet_of(client_ip: int) -> Optional[str]:
        subnet = vantage.subnet_of(client_ip)
        return None if subnet is None else subnet.name

    accumulator = EdgeCloudAccumulator(subnet_of, prefix_len=prefix_len)
    with obs.span("monitor/ingest", dataset=name, epoch=epoch):
        for table in sealed_windows(world, min(_INGEST_WINDOW_S, world.duration_s)):
            accumulator.observe(table)
        obs.inc("monitor.flows", accumulator.flows_total, dataset=name)

    prefixes = accumulator.prefixes()
    site_of_server_ip = world.measured().site_of_server_ip
    targets = {}
    for prefix in prefixes:
        site = site_of_server_ip(accumulator.representative_ip(prefix))
        if site is not None:
            targets[prefix] = site
    measured: Dict[int, float] = {}
    if targets:
        with obs.span("monitor/probe", dataset=name, epoch=epoch, targets=len(targets)):
            job = CampaignJob(
                label=f"monitor/{name}/epoch{epoch}",
                latency=world.latency,
                origin=vantage.probe_site,
                targets=targets,
                probes=probes,
                seed=rtt_seed,
            )
            (measurements,) = run_campaigns([job])
            measured = {
                prefix: round(rtt, RTT_DECIMALS)
                for prefix, rtt in measurements.items()
            }
    probes_lost = len(targets) - len(measured)
    if probes_lost:
        obs.inc("monitor.probes_lost", probes_lost, dataset=name)

    return EpochSnapshot(
        name=name,
        epoch=epoch,
        duration_s=world.duration_s,
        prefix_len=prefix_len,
        cells=tuple(accumulator.cells()),
        rtt_ms=tuple(sorted(measured.items())),
        bytes_total=accumulator.bytes_total,
        flows_total=accumulator.flows_total,
        probes_lost=probes_lost,
    )
