"""The streamed study: the paper's headline analysis with bounded memory.

:func:`stream_dataset` drives one world's live-emit event stream through
the tumbling windower into the study's folds; :class:`StreamStudy` is
the batch :class:`~repro.core.pipeline.StudyPipeline` with those window-
by-window folds in place of its one-batch ones, so every view — the
tables, the preferred-DC reports, Figure 9, the RTT campaigns and CBG
clustering — is the same code in both modes.

Byte parity is the design contract: ``repro study --stream`` produces
the identical report text and identical ``--digests`` lines as the batch
path, at any window size, because

* the simulator's event stream carries exactly the batch dataset's
  records (same RNG consumption, see
  :func:`repro.sim.engine.stream_requests`),
* sealed windows concatenate to the batch record order (see
  :mod:`repro.stream.windows`),
* the folds of :mod:`repro.core.folds` give the same state whether they
  see the records in one batch or window by window, and
* sessions are split by the one session index, with only the last
  session of each (client, video) group carried between windows.

Memory stays bounded by distinct entities — servers, clients, open
sessions, one window's records — never by the flow count.  (The request
*schedule* is still materialised per world by the workload generator;
flow records, the dominant term, are not.)  This makes ``--stream`` the
study's one low-memory mode; for wall time, the batch path fans the
vantage points out with ``--parallel process`` instead (see "Scale-out"
in docs/architecture.md).
"""

from __future__ import annotations

import io
import resource
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Dict, Optional

from repro import obs
from repro.core.asmap import render_table2
from repro.core.folds import HourlyShareAccumulator, TrafficAccumulator
from repro.core.geography import render_table3
from repro.core.pipeline import StudyPipeline
from repro.core.sessions import DEFAULT_GAP_S, SessionStatsAccumulator
from repro.core.summary import render_table1
from repro.exec.executor import ParallelExecutor
from repro.faults import report as degradation
from repro.sim.driver import DEFAULT_SCALE
from repro.sim.engine import DEFAULT_MISS_PROBABILITY
from repro.sim.scenarios import DATASET_NAMES, PAPER_SCENARIOS, ScenarioWorld, build_world
from repro.trace.records import WEEK_S

if TYPE_CHECKING:
    # The batch study renders through this module but never streams.
    from repro.stream.digest import StreamingDigest


def peak_rss_kb() -> int:
    """This process's peak resident set size so far, in kilobytes."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


@dataclass
class StreamedDataset:
    """One dataset's week, consumed as a stream.

    Attributes:
        name: Dataset name.
        world: The physical world behind it (kept for the active
            measurements, exactly as the batch ``SimulationResult`` keeps
            its world).
        traffic: Per-server traffic totals and their derivations.
        hourly: Per-hour video-flow counts.
        session_stats: Flows-per-session histogram state.
        digest: Running content digest over the sealed windows.
        windows: Windows sealed.
        late_records: Arrivals dropped for violating the watermark.
        peak_open_sessions: High-water mark of concurrently open sessions.
        peak_window_records: Largest single sealed window.
        rss_after_kb: Process peak RSS when this dataset finished — the
            per-dataset points of the run's memory trajectory.
    """

    name: str
    world: ScenarioWorld
    traffic: TrafficAccumulator
    hourly: HourlyShareAccumulator
    session_stats: SessionStatsAccumulator
    digest: StreamingDigest
    windows: int
    late_records: int
    peak_open_sessions: int
    peak_window_records: int
    rss_after_kb: int


def stream_dataset(
    world: ScenarioWorld,
    window_s: float = 3600.0,
    gap_s: float = DEFAULT_GAP_S,
    miss_probability: float = DEFAULT_MISS_PROBABILITY,
) -> StreamedDataset:
    """Run one world's week as a stream and fold it into accumulators.

    Args:
        world: A built scenario world.
        window_s: Tumbling-window width in seconds.
        gap_s: Session gap T for the incremental session builder.
        miss_probability: Monitor classification-miss probability.

    Returns:
        The :class:`StreamedDataset` with every accumulator final.
    """
    from repro.stream.digest import StreamingDigest
    from repro.stream.source import simulated_stream
    from repro.stream.windows import TumblingWindower, WindowedSessionBuilder, drive

    name = world.spec.name
    windower = TumblingWindower(window_s)
    builder = WindowedSessionBuilder(gap_s)
    traffic = TrafficAccumulator()
    hourly = HourlyShareAccumulator()
    session_stats = SessionStatsAccumulator()
    digest = StreamingDigest()
    peak_window = 0

    def on_window(window) -> None:
        nonlocal peak_window
        digest.update_window(window)
        traffic.observe(window.table)
        hourly.observe(window.table)
        peak_window = max(peak_window, len(window))
        obs.inc("stream.windows", dataset=name)
        obs.observe("stream.window_records", len(window), dataset=name)

    def on_sessions(closed) -> None:
        session_stats.add(closed)
        obs.set_gauge("stream.open_sessions", builder.open_sessions, dataset=name)

    with obs.span("stream/ingest", dataset=name, window_s=window_s):
        drive(
            simulated_stream(world, miss_probability=miss_probability),
            windower, on_window, builder, on_sessions,
        )
        obs.set_gauge("stream.peak_rss", peak_rss_kb())
    if windower.late_records:
        degradation.record("stream/windower", degraded=1, late=windower.late_records)
    return StreamedDataset(
        name=name,
        world=world,
        traffic=traffic,
        hourly=hourly,
        session_stats=session_stats,
        digest=digest,
        windows=windower.windows_sealed,
        late_records=windower.late_records,
        peak_open_sessions=builder.peak_open_sessions,
        peak_window_records=peak_window,
        rss_after_kb=peak_rss_kb(),
    )


class StreamStudy(StudyPipeline):
    """The study's tables, derived from streamed datasets.

    Everything is inherited from :class:`~repro.core.pipeline.StudyPipeline`
    — the table and figure views, the RTT campaigns and CBG clustering,
    with the same derived seeds, span names and degradation stages —
    except the folds, which come from the stream instead of one batch
    over a materialised dataset.  The record-level methods (sessions and
    Figures 4, 5 and 10-16) need materialised records and stay batch-only.

    Args:
        results: Mapping dataset name → streamed dataset, in
            presentation order.
        landmark_count: CBG landmark budget (``None`` = full set).
        probes_per_measurement: Pings per RTT measurement.
        seed: Measurement-noise seed (the batch pipeline's default 11).
        executor: Fan-out strategy for the RTT campaigns.
    """

    def streamed(self, name: str) -> StreamedDataset:
        """One streamed dataset."""
        return self._results[name]

    @cached_property
    def traffic(self) -> Dict[str, TrafficAccumulator]:
        """Per-dataset traffic folds, accumulated window by window."""
        return {name: s.traffic for name, s in self._results.items()}

    @cached_property
    def hourly(self) -> Dict[str, HourlyShareAccumulator]:
        """Per-dataset hourly video-flow folds, accumulated window by window."""
        return {name: s.hourly for name, s in self._results.items()}

    def session_histogram(self, name: str) -> Dict[str, float]:
        """Flows-per-session histogram over every streamed flow.

        Unlike the batch Figure 6 bars, which count the focus flows'
        sessions, the incremental builder sees all flows.
        """
        return self._results[name].session_stats.histogram()

    # ---------------------------------------------------------------- stats

    def digests(self) -> Dict[str, str]:
        """Per-dataset streaming content digests."""
        return {name: s.digest.hexdigest() for name, s in self._results.items()}

    def stats(self) -> Dict[str, Dict[str, object]]:
        """Machine-readable per-dataset streaming statistics."""
        out: Dict[str, Dict[str, object]] = {}
        for name, s in self._results.items():
            out[name] = {
                "flows": s.traffic.flows,
                "windows": s.windows,
                "late_records": s.late_records,
                "sessions_closed": s.session_stats.sessions,
                "peak_open_sessions": s.peak_open_sessions,
                "peak_window_records": s.peak_window_records,
                "rss_after_kb": s.rss_after_kb,
            }
        return out


def run_streaming_study(
    scale: float = DEFAULT_SCALE,
    seed: int = 7,
    window_s: float = 3600.0,
    duration_s: float = WEEK_S,
    landmark_count: Optional[int] = None,
    gap_s: float = DEFAULT_GAP_S,
    executor: Optional[ParallelExecutor] = None,
) -> StreamStudy:
    """Stream every dataset of the study and wire up the analysis.

    The worlds are built with the same parameters the batch
    :func:`repro.sim.driver.run_all` uses, so the streamed records are
    the batch datasets' records.
    """
    streamed: Dict[str, StreamedDataset] = {}
    for name in DATASET_NAMES:
        world = build_world(
            PAPER_SCENARIOS[name], scale=scale, seed=seed, duration_s=duration_s
        )
        streamed[name] = stream_dataset(world, window_s=window_s, gap_s=gap_s)
    return StreamStudy(streamed, landmark_count=landmark_count, executor=executor)


def render_stream_report(study: StudyPipeline) -> str:
    """Render the study summary: Tables I-III and the preferred-DC lines.

    This is ``repro study``'s default (non ``--full``) output for a batch
    :class:`~repro.core.pipeline.StudyPipeline` and a :class:`StreamStudy`
    alike; the parity tests and the ``stream-smoke`` CI job diff the two
    modes byte for byte.
    """
    buffer = io.StringIO()
    print(render_table1(study.summaries.values()), file=buffer)
    print("", file=buffer)
    print(render_table2(study.as_breakdowns.values()), file=buffer)
    print("", file=buffer)
    print(render_table3(study.table3_rows), file=buffer)
    print("", file=buffer)
    for name in study.dataset_names:
        report = study.preferred_reports[name]
        print(
            f"{name:12s} preferred={report.preferred_id:24s} "
            f"share={report.byte_share(report.preferred_id):6.1%} "
            f"non-preferred flows={study.nonpreferred_fraction(name):6.1%}",
            file=buffer,
        )
    return buffer.getvalue()
