"""Tests for the streaming ingestion path (repro.stream).

The load-bearing property throughout is *byte parity*: the streamed path
must reproduce the batch path's records, sessions, aggregates, report
text and content digests exactly, at any window size, including under
within-watermark disorder.
"""

from __future__ import annotations

import hashlib
import io
import math
from collections import Counter
from pathlib import Path

import pytest

from repro import obs
from repro.cli import main
from repro.core.folds import HourlyShareAccumulator, TrafficAccumulator
from repro.core.pipeline import StudyPipeline
from repro.core.sessions import (
    SessionStatsAccumulator,
    build_sessions,
    flows_per_session_histogram,
)
from repro.core.summary import summarize
from repro.faults import report as degradation
from repro.faults.plan import FaultPlan, clear_current_plan, set_current_plan
from repro.sim.engine import run_requests
from repro.sim.scenarios import PAPER_SCENARIOS, build_world
from repro.stream.events import FlowArrival, WatermarkAdvance
from repro.stream.source import (
    inject_disorder,
    replay_flow_log,
    replay_records,
)
from repro.stream.windows import TumblingWindower, WindowedSessionBuilder, drive
from repro.stream.study import stream_dataset
from repro.trace.logio import format_record, update_digest, write_flow_log
from repro.trace.records import FlowRecord


def rec(t_start, t_end, src=1, dst=100, num_bytes=5000, video="vidA"):
    return FlowRecord(src_ip=src, dst_ip=dst, num_bytes=num_bytes,
                      t_start=t_start, t_end=t_end, video_id=video,
                      resolution="360p")


def drain(windower, events):
    """Push events; return (sealed windows, concatenated records)."""
    windows = []
    for event in events:
        windows.extend(windower.push(event))
    windows.extend(windower.finish())
    return windows, [r for w in windows for r in w.records]


def session_histogram(events, window_s=3600.0, gap_s=1.0):
    """All-flow sessions, built as ``repro sessions --stream`` builds them."""
    stats = SessionStatsAccumulator()
    drive(events, TumblingWindower(window_s), lambda window: None,
          WindowedSessionBuilder(gap_s), stats.add)
    return stats.histogram()


def counted_stream(world, window_s):
    """Stream one world; return the week and the run's ``stream.*`` metrics."""
    run = obs.new_run("stream-test")
    try:
        return stream_dataset(world, window_s=window_s), run.metrics
    finally:
        obs.set_current_run(None)


class TestTumblingWindower:
    def test_window_boundaries_are_half_open(self):
        w = TumblingWindower(10.0)
        events = [
            FlowArrival(rec(9.999, 11.0), seq=0),
            FlowArrival(rec(10.0, 12.0), seq=1),   # exactly at the edge
            WatermarkAdvance(t_s=10.0),            # seals [0, 10) only
        ]
        sealed = []
        for event in events:
            sealed.extend(w.push(event))
        assert [win.index for win in sealed] == [0]
        assert len(sealed[0]) == 1
        late = w.finish()
        assert [win.index for win in late] == [1]

    def test_records_sorted_by_t_start_t_end_seq(self):
        w = TumblingWindower(100.0)
        arrivals = [rec(5.0, 9.0), rec(1.0, 3.0), rec(5.0, 9.0), rec(5.0, 5.5)]
        events = [FlowArrival(r, seq=i) for i, r in enumerate(arrivals)]
        windows, ordered = drain(w, events)
        assert len(windows) == 1
        assert ordered == sorted(
            arrivals, key=lambda r: (r.t_start, r.t_end)
        )
        # Equal (t_start, t_end) records stay in seq order.
        assert ordered[2] is arrivals[0] and ordered[3] is arrivals[2]

    def test_late_arrivals_are_dropped_and_counted(self):
        w = TumblingWindower(10.0)
        w.push(FlowArrival(rec(5.0, 6.0), seq=0))
        w.advance(20.0)
        assert w.push(FlowArrival(rec(3.0, 4.0), seq=1)) == []
        assert w.late_records == 1
        # In-watermark arrivals still land.
        w.push(FlowArrival(rec(25.0, 26.0), seq=2))
        assert sum(len(win) for win in w.finish()) == 1

    def test_watermark_regression_raises(self):
        w = TumblingWindower(10.0)
        w.advance(50.0)
        with pytest.raises(ValueError):
            w.advance(49.0)

    def test_negative_times_are_windowed_not_dropped(self):
        w = TumblingWindower(10.0)
        assert w.sealed_boundary_s == -math.inf
        w.push(FlowArrival(rec(-25.0, -24.0), seq=0))
        windows, ordered = drain(w, [])
        assert [win.index for win in windows] == [-3]
        assert len(ordered) == 1

    def test_sealed_boundary_tracks_watermark_floor(self):
        w = TumblingWindower(10.0)
        w.advance(34.0)
        assert w.sealed_boundary_s == 30.0
        w.advance(math.inf)
        assert w.sealed_boundary_s == math.inf

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            TumblingWindower(0.0)


class TestWindowedSessionBuilder:
    def stream_sessions(self, records, window_s, gap_s):
        w = TumblingWindower(window_s)
        b = WindowedSessionBuilder(gap_s)
        out = []
        for i, r in enumerate(sorted(records, key=lambda r: r.t_start)):
            for win in w.push(WatermarkAdvance(t_s=r.t_start)):
                out.extend(b.observe_window(win))
            out.extend(b.advance(w.sealed_boundary_s))
            w.push(FlowArrival(r, seq=i))
        for win in w.finish():
            out.extend(b.observe_window(win))
        out.extend(b.finish())
        return out

    def canon(self, sessions):
        return Counter(
            (s.client_ip, s.video_id, tuple(s.flows)) for s in sessions
        )

    def test_matches_batch_on_gap_breaks(self):
        records = [rec(0.0, 1.0), rec(1.5, 2.0), rec(10.0, 11.0),
                   rec(11.2, 12.0), rec(30.0, 31.0)]
        for window_s in (1.0, 5.0, 100.0):
            streamed = self.stream_sessions(records, window_s, gap_s=2.0)
            assert self.canon(streamed) == self.canon(
                build_sessions(records, gap_s=2.0)
            )

    def test_long_flow_holds_session_open_across_windows(self):
        # A flow spanning many windows: the horizon (t_end) keeps the
        # session open even after its start window sealed long ago.
        records = [rec(0.0, 50.0), rec(51.0, 52.0)]
        streamed = self.stream_sessions(records, window_s=5.0, gap_s=2.0)
        assert self.canon(streamed) == self.canon(
            build_sessions(records, gap_s=2.0)
        )
        assert len(streamed) == 1 and streamed[0].num_flows == 2

    def test_sessions_close_only_past_sealed_boundary(self):
        b = WindowedSessionBuilder(gap_s=2.0)
        w = TumblingWindower(10.0)
        w.push(FlowArrival(rec(5.0, 6.0), seq=0))
        for win in w.advance(10.0):
            b.observe_window(win)
        # horizon 6 + gap 2 = 8 <= boundary 10: closes.
        assert len(b.advance(w.sealed_boundary_s)) == 1
        assert b.finish() == []

    def test_break_inside_a_window_then_join_from_the_next(self):
        # b breaks from a inside window [0, 10); c starts in the next
        # window within the gap of b's horizon, so it joins b's session.
        a, b, c = rec(0.0, 1.0), rec(5.0, 9.5), rec(10.5, 11.0)
        builder = WindowedSessionBuilder(gap_s=2.0)
        w = TumblingWindower(10.0)
        for seq, r in enumerate((a, b, c)):
            w.push(FlowArrival(r, seq=seq))
        first, second = w.advance(20.0)
        assert [s.flows for s in builder.observe_window(first)] == [[a]]
        assert builder.advance(10.0) == []  # horizon 9.5 + gap 2 > 10
        assert builder.observe_window(second) == []
        assert [s.flows for s in builder.finish()] == [[b, c]]

    def test_rejects_nonpositive_gap(self):
        with pytest.raises(ValueError):
            WindowedSessionBuilder(0.0)


class TestReplaySources:
    def test_replay_ends_with_infinite_watermark(self):
        events = list(replay_records([rec(1.0, 2.0)]))
        assert isinstance(events[-1], WatermarkAdvance)
        assert math.isinf(events[-1].t_s)
        assert sum(isinstance(e, FlowArrival) for e in events) == 1

    def test_watermark_lag_tolerates_local_disorder(self):
        records = [rec(0.0, 1.0), rec(3.0, 4.0), rec(2.0, 3.0), rec(9.0, 9.5)]
        w = TumblingWindower(5.0)
        _, ordered = drain(w, replay_records(records, watermark_lag_s=2.0))
        assert w.late_records == 0
        assert [r.t_start for r in ordered] == [0.0, 2.0, 3.0, 9.0]

    def test_no_lag_drops_out_of_order_records(self):
        records = [rec(5.0, 6.0), rec(1.0, 2.0)]
        w = TumblingWindower(1.0)
        _, ordered = drain(w, replay_records(records))
        assert w.late_records == 1
        assert [r.t_start for r in ordered] == [5.0]

    def test_negative_lag_rejected(self):
        with pytest.raises(ValueError):
            list(replay_records([], watermark_lag_s=-1.0))

    def test_flow_log_replay_equals_in_memory_replay(self, tmp_path):
        records = [rec(float(i), float(i) + 0.5, dst=100 + i % 3)
                   for i in range(20)]
        path = tmp_path / "flows.tsv"
        write_flow_log(records, path)
        from_file = [e.record for e in replay_flow_log(path)
                     if isinstance(e, FlowArrival)]
        assert from_file == records


class TestStreamingDigest:
    def test_matches_canonical_serialisation(self):
        records = [rec(3.0, 4.0), rec(1.0, 2.0), rec(1.0, 5.0)]
        w = TumblingWindower(1.0)
        digest = hashlib.sha256()
        windows, ordered = drain(w, replay_records(records, watermark_lag_s=10.0))
        assert len(windows) == 2  # hashed window by window
        for win in windows:
            update_digest(digest, win.table)
        expected = hashlib.sha256()
        for r in sorted(records, key=lambda r: (r.t_start, r.t_end)):
            expected.update(format_record(r).encode("ascii"))
            expected.update(b"\n")
        assert digest.hexdigest() == expected.hexdigest()


def window_counts(metrics):
    """``(windows sealed, largest window)`` from the stream's obs metrics."""
    largest = max(
        histogram.max for (name, _), histogram in metrics.histograms.items()
        if name == "stream.window_records"
    )
    return metrics.counter_total("stream.windows"), largest


@pytest.fixture(scope="module")
def counted_eu1(study_results):
    """EU1-ADSL consumed as a stream, from a fresh same-seed world."""
    from tests.conftest import TEST_SCALE, TEST_SEED

    world = build_world(PAPER_SCENARIOS["EU1-ADSL"], scale=TEST_SCALE,
                        seed=TEST_SEED)
    return counted_stream(world, window_s=3600.0)


@pytest.fixture(scope="module")
def streamed_eu1(counted_eu1):
    return counted_eu1[0]


class TestSimulatedStreamParity:
    def test_digest_matches_batch_dataset(self, streamed_eu1, eu1_adsl):
        assert streamed_eu1.digest == eu1_adsl.dataset.content_digest()

    def test_summary_matches_batch(self, streamed_eu1, eu1_adsl):
        assert (streamed_eu1.traffic.summary("EU1-ADSL")
                == summarize(eu1_adsl.dataset))

    def test_server_ips_match_batch(self, streamed_eu1, eu1_adsl):
        assert streamed_eu1.traffic.server_ips() == eu1_adsl.dataset.server_ips

    def test_session_histogram_matches_batch(self, eu1_adsl):
        batch = flows_per_session_histogram(
            build_sessions(eu1_adsl.dataset.records, gap_s=1.0)
        )
        assert session_histogram(replay_records(eu1_adsl.dataset.records)) == batch

    def test_memory_stays_windowed(self, counted_eu1):
        week, metrics = counted_eu1
        windows, largest = window_counts(metrics)
        assert windows > 100
        assert largest < week.traffic.flows / 10

    def test_window_size_does_not_change_the_digest(self, counted_eu1):
        from tests.conftest import TEST_SCALE, TEST_SEED

        world = build_world(PAPER_SCENARIOS["EU1-ADSL"], scale=TEST_SCALE,
                            seed=TEST_SEED)
        coarse, metrics = counted_stream(world, window_s=86400.0)
        fine, fine_metrics = counted_eu1
        assert coarse.digest == fine.digest
        assert window_counts(metrics)[0] < window_counts(fine_metrics)[0]


PARITY_NAMES = ("EU1-ADSL", "EU2")


@pytest.fixture(scope="module")
def study_pair(study_results, streamed_eu1):
    """Pipelines over batch folds and over streamed folds of the same weeks."""
    from tests.conftest import TEST_SCALE, TEST_SEED

    world = build_world(PAPER_SCENARIOS["EU2"], scale=TEST_SCALE, seed=TEST_SEED)
    weeks = {"EU1-ADSL": streamed_eu1, "EU2": stream_dataset(world, window_s=1800.0)}
    batch = StudyPipeline(
        {name: study_results[name] for name in PARITY_NAMES}, landmark_count=60
    )
    stream = StudyPipeline(
        weeks, landmark_count=60,
        folds={name: (week.traffic, week.hourly) for name, week in weeks.items()},
    )
    return batch, stream


class TestStudyParity:
    """Every view the summary report reads is equal over either fold schedule."""

    @pytest.mark.parametrize(
        "accessor",
        ["summaries", "as_breakdowns", "focus_ips", "rtt_campaigns", "table3_rows"],
    )
    def test_tables(self, study_pair, accessor):
        batch, stream = study_pair
        assert getattr(stream, accessor) == getattr(batch, accessor)

    def test_traffic_folds(self, study_pair):
        batch, stream = study_pair
        for name in PARITY_NAMES:
            assert [
                (ip, s.num_bytes, s.num_flows, s.video_flows)
                for ip, s in stream.traffic[name]._servers.items()
            ] == [
                (ip, s.num_bytes, s.num_flows, s.video_flows)
                for ip, s in batch.traffic[name]._servers.items()
            ]

    def test_server_map(self, study_pair):
        batch, stream = study_pair
        assert {ip: c.cluster_id for ip, c in stream.server_map.by_ip.items()} == {
            ip: c.cluster_id for ip, c in batch.server_map.by_ip.items()
        }

    def test_preferred_reports(self, study_pair):
        batch, stream = study_pair

        def shape(report):
            return (
                report.dataset_name, report.preferred_id, report.total_bytes,
                [(v.cluster_id, v.num_bytes, v.num_flows, v.min_rtt_ms, v.distance_km)
                 for v in report.views],
            )

        for name in PARITY_NAMES:
            assert shape(stream.preferred_reports[name]) == shape(
                batch.preferred_reports[name]
            )

    @pytest.mark.parametrize("name", PARITY_NAMES)
    def test_per_dataset_views(self, study_pair, name):
        batch, stream = study_pair
        assert stream.nonpreferred_fraction(name) == batch.nonpreferred_fraction(name)
        assert stream.fig9_cdf(name)._values == batch.fig9_cdf(name)._values
        assert stream.rtt_cdf(name)._values == batch.rtt_cdf(name)._values

    def test_record_level_views_need_the_batch_path(self, study_pair):
        _, stream = study_pair
        name = PARITY_NAMES[0]
        views = {
            "sessions": lambda: stream.sessions,
            "session_histogram": lambda: stream.session_histogram(name),
            "focus_records": lambda: stream.focus_records,
            "flow_size_cdf": lambda: stream.flow_size_cdf(name),
            "gap_sensitivity": lambda: stream.gap_sensitivity(name),
            "Figure 10": lambda: stream.one_flow_breakdown(name),
            "Figure 12": lambda: stream.subnet_shares(name),
            "Figure 14": lambda: stream.hot_videos(name),
            "peering": lambda: stream.peering(name),
        }
        for view, read in views.items():
            with pytest.raises(ValueError, match="need the batch path") as caught:
                read()
            assert "sessions, session_histogram, focus_records" in str(caught.value), view


class TestAccumulators:
    def windows_of(self, records, window_s=10.0):
        w = TumblingWindower(window_s)
        windows, _ = drain(
            w, replay_records(records, watermark_lag_s=1e9)
        )
        return windows

    def test_traffic_accumulator_totals(self):
        records = [rec(0.0, 1.0, src=1, dst=100, num_bytes=500),
                   rec(5.0, 6.0, src=2, dst=100, num_bytes=4000),
                   rec(25.0, 26.0, src=1, dst=101, num_bytes=7000)]
        acc = TrafficAccumulator()
        for win in self.windows_of(records):
            acc.observe(win.table)
        summary = acc.summary("X")
        assert summary.flows == 3
        assert summary.volume_bytes == 11500
        assert summary.num_servers == 2
        assert summary.num_clients == 2
        assert acc.server_ips() == [100, 101]

    def test_video_flow_threshold(self):
        # 1000-byte threshold separates control from video flows.
        records = [rec(0.0, 1.0, num_bytes=999), rec(1.0, 2.0, num_bytes=1000)]
        acc = TrafficAccumulator()
        for win in self.windows_of(records):
            acc.observe(win.table)
        stats = acc._servers[100]
        assert stats.num_flows == 2 and stats.video_flows == 1

    def test_hourly_accumulator_counts_video_flows_per_hour(self):
        records = [rec(10.0, 11.0), rec(3620.0, 3621.0),
                   rec(3630.0, 3631.0, num_bytes=10)]  # control flow
        acc = HourlyShareAccumulator()
        for win in self.windows_of(records, window_s=1800.0):
            acc.observe(win.table)
        assert acc._counts == {100: {0: 1, 1: 1}}

    def test_session_stats_histogram_parity(self):
        records = [rec(float(i), float(i) + 0.1) for i in range(5)]
        sessions = build_sessions(records, gap_s=0.5)
        acc = SessionStatsAccumulator()
        acc.add(sessions)
        assert acc.histogram() == flows_per_session_histogram(sessions)

    def test_empty_histogram_raises(self):
        with pytest.raises(ValueError):
            SessionStatsAccumulator().histogram()


class TestDisorderInjection:
    @pytest.fixture(autouse=True)
    def clean_degradation(self):
        obs.new_run("disorder")
        yield
        clear_current_plan()
        obs.set_current_run(None)

    def plan(self, rate=0.4):
        return FaultPlan(seed=3, record_disorder=rate)

    def events(self, n=40):
        records = [rec(float(i), float(i) + 0.5, dst=100 + i % 4)
                   for i in range(n)]
        return records, list(replay_records(records))

    def test_preserves_every_record(self):
        records, events = self.events()
        out = list(inject_disorder(iter(events), self.plan(), "t"))
        arrivals = [e.record for e in out if isinstance(e, FlowArrival)]
        assert Counter(arrivals) == Counter(records)

    def test_actually_reorders(self):
        _, events = self.events()
        out = list(inject_disorder(iter(events), self.plan(), "t"))
        seqs = [e.seq for e in out if isinstance(e, FlowArrival)]
        assert seqs != sorted(seqs)

    def test_is_deterministic(self):
        _, events = self.events()
        first = list(inject_disorder(iter(events), self.plan(), "t"))
        _, events = self.events()
        second = list(inject_disorder(iter(events), self.plan(), "t"))
        assert first == second

    def test_watermarks_stay_monotone_and_safe(self):
        _, events = self.events()
        out = list(inject_disorder(iter(events), self.plan(), "t"))
        watermark = -math.inf
        pending = []
        for event in out:
            if isinstance(event, WatermarkAdvance):
                assert event.t_s >= watermark
                watermark = event.t_s
            else:
                assert event.record.t_start >= watermark or math.isinf(watermark)
        assert math.isinf(watermark)

    def test_windower_absorbs_injected_disorder(self):
        records, events = self.events()
        w = TumblingWindower(7.0)
        _, ordered = drain(w, inject_disorder(iter(events), self.plan(), "t"))
        assert w.late_records == 0
        assert ordered == sorted(records, key=lambda r: (r.t_start, r.t_end))

    def test_degradation_is_recorded(self):
        # record() only tallies while a plan is installed.
        set_current_plan(self.plan())
        _, events = self.events()
        list(inject_disorder(iter(events), self.plan(), "t"))
        report = degradation.collect()
        assert report.stages["stream/source"]["disordered"] > 0

    def test_active_plan_changes_no_bytes_end_to_end(self, tmp_path):
        """A replayed flow log is the fault's one site: ``repro sessions
        --stream`` prints the same bytes under it, and a streamed study's
        week, which never becomes events, is not disordered at all."""

        def world():
            return build_world(PAPER_SCENARIOS["EU1-FTTH"], scale=0.004, seed=3,
                               duration_s=86400.0)

        batch = run_requests(world()).dataset
        path = tmp_path / "flows.tsv"
        write_flow_log(batch.records, path)
        args = ["sessions", "--flows", str(path), "--gaps", "1,10,60",
                "--stream", "--window-s", "1800"]
        baseline = io.StringIO()
        assert main(args, out=baseline) == 0
        set_current_plan(self.plan(rate=0.2))
        disordered = io.StringIO()
        assert main(args, out=disordered) == 0
        assert disordered.getvalue() == baseline.getvalue()
        assert degradation.collect().stages["stream/source"]["disordered"] > 0

        obs.new_run("disorder")
        assert stream_dataset(world(), window_s=3600.0).digest == batch.content_digest()
        assert degradation.collect().stages == {}


class TestCliStream:
    def run(self, *argv):
        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

    def test_stream_policy_matches_golden(self):
        golden = Path(__file__).parent / "golden" / "study_gwtw_0.01.digests"
        code, text = self.run("study", "--stream", "--policy", "gwtw",
                              "--scale", "0.01", "--digests")
        assert code == 0
        digests = [line for line in text.splitlines() if line.startswith("digest ")]
        assert digests == golden.read_text(encoding="ascii").splitlines()

    def test_stream_rejects_full_and_validate(self):
        for flag in ("--full", "--validate"):
            code, text = self.run("study", "--stream", flag,
                                  "--scale", "0.004", "--landmarks", "40")
            assert code == 2
            assert text == ""

    def test_sessions_stream_is_byte_identical(self, tmp_path, eu1_adsl):
        path = tmp_path / "flows.tsv"
        write_flow_log(eu1_adsl.dataset.records, path)
        args = ("sessions", "--flows", str(path), "--gaps", "1,10,60")
        code, batch = self.run(*args)
        assert code == 0
        code, streamed = self.run(*args, "--stream", "--window-s", "1800")
        assert code == 0
        assert streamed == batch

    def test_sessions_stream_empty_log(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("")
        code, text = self.run("sessions", "--flows", str(path), "--stream")
        assert code == 1
        assert "flow log is empty" in text
