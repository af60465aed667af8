"""The streamed study: the paper's headline analysis with bounded memory.

:func:`stream_dataset` drives one world's live-emit event stream through
the tumbling windower and folds each sealed window into the study's two
folds and, when the digests are printed, a running content digest.
:func:`run_streaming_study` hands those folds to the one
:class:`~repro.core.pipeline.StudyPipeline`, so every view — the tables,
the preferred-DC reports, Figure 9, the RTT campaigns and CBG
clustering — is the same code in both modes: the stream only changes
how a week is folded.

Byte parity is the design contract: ``repro study --stream`` produces
the identical report text and identical ``--digests`` lines as the batch
path, at any window size and under any ``--policy``, because

* the simulator's event stream carries exactly the batch dataset's
  records (same RNG consumption, see
  :func:`repro.sim.engine.stream_requests`),
* sealed windows concatenate to the batch record order (see
  :mod:`repro.stream.windows`), and
* the folds of :mod:`repro.core.folds` give the same state whether they
  see the records in one batch or window by window.

Memory stays bounded by distinct entities — servers, clients, one
window's records — never by the flow count.  (The request *schedule* is
still materialised per world by the workload generator; flow records,
the dominant term, are not.)  This makes ``--stream`` the study's one
low-memory mode; for wall time, the batch path fans the vantage points
out with ``--parallel process`` instead (see "Scale-out" in
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
from repro.exec.executor import ParallelExecutor
from repro.faults import report as degradation
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
    """Run one world's week as a stream and fold it window by window.

    Args:
        world: A built scenario world.
        window_s: Tumbling-window width in seconds.
        hashed: Whether to hash the sealed records (``repro study
            --stream`` does only under ``--digests``).

    Returns:
        The measured world, its final traffic and hourly folds, and the content
        digest of every sealed record (equal to the batch dataset's
        :meth:`~repro.trace.records.Dataset.content_digest`; ``None``
        unless ``hashed``).
    """
    from repro.stream.source import simulated_stream
    from repro.stream.windows import TumblingWindower, drive

    name = world.spec.name
    windower = TumblingWindower(window_s)
    traffic = TrafficAccumulator()
    hourly = HourlyShareAccumulator()
    digest = hashlib.sha256() if hashed else None

    def on_window(window) -> None:
        if digest is not None:
            update_digest(digest, window.table)
        traffic.observe(window.table)
        hourly.observe(window.table)
        obs.inc("stream.windows", dataset=name)
        obs.observe("stream.window_records", len(window), dataset=name)

    with obs.span("stream/ingest", dataset=name, window_s=window_s):
        drive(simulated_stream(world), windower, on_window)
    if windower.late_records:
        degradation.record("stream/windower", degraded=1, late=windower.late_records)
    return StreamedWeek(
        world.measured(), traffic, hourly, None if digest is None else digest.hexdigest()
    )


def run_streaming_study(
    scale: float,
    seed: int,
    window_s: float,
    policy_kind: str = "preferred",
    landmark_count: Optional[int] = None,
    executor: Optional[ParallelExecutor] = None,
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
        weeks, landmark_count=landmark_count, executor=executor,
        folds={name: (week.traffic, week.hourly) for name, week in weeks.items()},
    )
    return study, {name: week.digest for name, week in weeks.items()} if hashed else None
