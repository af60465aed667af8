"""The streamed study: the paper's headline analysis with bounded memory.

:func:`stream_dataset` serves one world's week and folds each window the
edge monitor seals (:func:`repro.sim.engine.sealed_windows`) into the
study's two folds and, when the digests are printed, a running content
digest.  :func:`run_streaming_study` hands those folds to the one
:class:`~repro.core.pipeline.StudyPipeline`, so every view — the tables,
the preferred-DC reports, Figure 9, the RTT campaigns and CBG
clustering — is the same code in both modes: the stream only changes
how a week is folded.

Byte parity is the design contract: ``repro study --stream`` produces
the identical report text and identical ``--digests`` lines as the batch
path, at any window size and under any ``--policy``, because

* the windows are collected by the batch path's own request loop and
  monitor (same RNG consumption, same kept flows),
* the monitor seals windows at increasing instants, each in the stable
  ``(t_start, t_end)`` order its batch ``finish`` uses, so the windows
  concatenate to the batch dataset's rows, and
* the folds of :mod:`repro.core.folds` give the same state whether they
  see the rows in one batch or window by window.

Memory stays bounded by distinct entities — servers, clients, one
window's flows — never by the flow count.  (The request *schedule* is
still materialised per world by the workload generator; flows, the
dominant term, are not.)  This makes ``--stream`` the study's one
low-memory mode; for wall time, the batch path fans the vantage points'
weeks out over the cores instead (see "Scale-out" in
docs/architecture.md).  The record-level analyses of ``--full`` and
``--validate`` need a materialised week, so they stay batch-only.
"""

from __future__ import annotations

import hashlib
from typing import Dict, NamedTuple, Optional, Tuple

from repro import obs
from repro.core.folds import HourlyShareAccumulator, TrafficAccumulator
from repro.core.pipeline import StudyPipeline
# The summary renderer's old home: perfbench imports it from here.
from repro.core.report import render_study_summary as render_stream_report  # noqa: F401
from repro.defaults import DATASET_NAMES
from repro.sim.scenarios import ScenarioWorld, build_world
from repro.sim.specs import PAPER_SCENARIOS
from repro.sim.week import MeasuredWorld
from repro.trace.logio import update_digest


class StreamedWeek(NamedTuple):
    """One world's week, folded as a stream: what the study reads of it."""

    world: MeasuredWorld
    traffic: TrafficAccumulator
    hourly: HourlyShareAccumulator
    digest: Optional[str]


def stream_dataset(
    world: ScenarioWorld,
    window_s: float = 3600.0,
    hashed: bool = True,
) -> StreamedWeek:
    """Serve one world's week and fold it window by window as it is sealed.

    Args:
        world: A built scenario world.
        window_s: Tumbling-window width in seconds.
        hashed: Whether to hash the sealed flows (``repro study
            --stream`` does only under ``--digests``).

    Returns:
        The measured world, its final traffic and hourly folds, and the content
        digest of every sealed flow (equal to the batch dataset's
        :meth:`~repro.trace.records.Dataset.content_digest`; ``None``
        unless ``hashed``).
    """
    from repro.sim.engine import sealed_windows

    name = world.spec.name
    traffic = TrafficAccumulator()
    hourly = HourlyShareAccumulator()
    digest = hashlib.sha256() if hashed else None
    with obs.span("stream/ingest", dataset=name, window_s=window_s):
        for table in sealed_windows(world, window_s):
            if digest is not None:
                update_digest(digest, table)
            traffic.observe(table)
            hourly.observe(table)
            obs.inc("stream.windows", dataset=name)
            obs.observe("stream.window_records", len(table), dataset=name)
    return StreamedWeek(
        world.measured(), traffic, hourly, None if digest is None else digest.hexdigest()
    )


def run_streaming_study(
    scale: float,
    seed: int,
    window_s: float,
    policy_kind: str = "preferred",
    landmark_count: Optional[int] = None,
    hashed: bool = False,
) -> Tuple[StudyPipeline, Optional[Dict[str, str]]]:
    """Stream every dataset of the study and wire up the analysis.

    The worlds are built with the same parameters the batch
    :func:`repro.sim.driver.run_all` uses, so the streamed records are
    the batch datasets' records.

    Returns:
        ``(pipeline, digests)``: the study over the streamed folds, and
        one content digest per dataset (``None`` unless ``hashed``).
    """
    weeks = {
        name: stream_dataset(
            build_world(PAPER_SCENARIOS[name], scale=scale, seed=seed,
                        policy_kind=policy_kind),
            window_s=window_s,
            hashed=hashed,
        )
        for name in DATASET_NAMES
    }
    study = StudyPipeline(
        weeks, landmark_count=landmark_count,
        folds={name: (week.traffic, week.hourly) for name, week in weeks.items()},
    )
    return study, {name: week.digest for name, week in weeks.items()} if hashed else None
