"""Tests for the streaming ingestion path (repro.stream).

The load-bearing property throughout is *byte parity*: the streamed path
must reproduce the batch path's records, sessions, aggregates, report
text and content digests exactly, at any window size, including a
replayed log's disorder within ``--lag-s``.
"""

from __future__ import annotations

import hashlib
import io
import random
from pathlib import Path

import pytest

from repro import obs
from repro.cli import main
from repro.core.folds import HourlyShareAccumulator, TrafficAccumulator
from repro.core.pipeline import StudyPipeline
from repro.core.sessions import (
    SessionStatsAccumulator,
    WindowedSessionBuilder,
    build_sessions,
    flows_per_session_histogram,
)
from repro.core.summary import summarize
from repro.sim.scenarios import PAPER_SCENARIOS, build_world
from repro.stream.study import stream_dataset
from repro.trace.columnar import FlowTable
from repro.trace.logio import (
    format_record,
    iter_flow_log,
    sealed_log_windows,
    update_digest,
    write_flow_log,
)
from repro.trace.records import FlowRecord


def rec(t_start, t_end, src=1, dst=100, num_bytes=5000, video="vidA"):
    return FlowRecord(src_ip=src, dst_ip=dst, num_bytes=num_bytes,
                      t_start=t_start, t_end=t_end, video_id=video,
                      resolution="360p")


def replay(records, window_s=3600.0, lag_s=0.0):
    """A record list's sealed windows, as ``repro sessions --stream`` reads a log."""
    return list(sealed_log_windows(records, window_s, lag_s))


def concatenated(windows):
    return [r for w in windows for r in w.records]


def session_histogram(records, window_s=3600.0, gap_s=1.0):
    """All-flow sessions, built as ``repro sessions --stream`` builds them."""
    builder = WindowedSessionBuilder(gap_s)
    for window in sealed_log_windows(records, window_s):
        builder.observe(window)
    builder.finish()
    return builder.stats.histogram()


def counted_stream(world, window_s):
    """Stream one world; return the week and the run's ``stream.*`` metrics."""
    run = obs.new_run("stream-test")
    try:
        return stream_dataset(world, window_s=window_s), run.metrics
    finally:
        obs.set_current_run(None)


class TestLogWindows:
    def test_window_boundaries_are_half_open(self):
        windows = replay([rec(9.999, 11.0), rec(10.0, 12.0)], window_s=10.0)
        assert [[r.t_start for r in w] for w in windows] == [[9.999], [10.0]]

    def test_windows_seal_as_the_clock_passes(self):
        read = []

        def records():
            for record in (rec(1.0, 2.0), rec(9.0, 9.5), rec(12.0, 13.0), rec(14.0, 15.0)):
                read.append(record.t_start)
                yield record

        windows = sealed_log_windows(records(), 10.0, lag_s=1.0)
        # The clock reaches 11 at the third record, past the first
        # window's end, so that window is sealed before the fourth is read.
        assert [r.t_start for r in next(windows)] == [1.0, 9.0]
        assert read == [1.0, 9.0, 12.0]
        assert [r.t_start for r in next(windows)] == [12.0, 14.0]

    def test_rows_sorted_by_t_start_t_end_then_file_order(self):
        arrivals = [rec(5.0, 9.0), rec(1.0, 3.0), rec(5.0, 9.0), rec(5.0, 5.5)]
        windows = replay(arrivals, window_s=100.0, lag_s=10.0)
        assert len(windows) == 1
        ordered = concatenated(windows)
        assert ordered == sorted(arrivals, key=lambda r: (r.t_start, r.t_end))
        # The file order breaks exact (t_start, t_end) ties: the sealed
        # table was built from the records in the order they were read.
        tied = [rec(2.0, 3.0, src=2), rec(1.0, 4.0), rec(2.0, 3.0, src=1)]
        windows = replay(tied, window_s=100.0, lag_s=10.0)
        assert [r.src_ip for r in concatenated(windows)] == [1, 2, 1]

    def test_late_flow_raises(self):
        records = [rec(5.0, 6.0), rec(25.0, 26.0), rec(3.0, 4.0)]
        with pytest.raises(ValueError, match=r"t_start 3\.0 is 22 s behind.*--lag-s 22"):
            replay(records, window_s=10.0)
        assert concatenated(replay(records, window_s=10.0, lag_s=22.0)) == sorted(
            records, key=lambda r: r.t_start
        )

    def test_negative_times_are_windowed_not_dropped(self):
        windows = replay([rec(-25.0, -24.0)], window_s=10.0)
        assert [w.columns().t_start[0] // 10.0 for w in windows] == [-3]
        assert len(concatenated(windows)) == 1

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            replay([rec(1.0, 2.0)], window_s=0.0)


class SizeLog:
    """Stands in for a builder's stats: keeps every session size it is handed."""

    def __init__(self):
        self.sizes = []

    def add_sizes(self, sizes):
        self.sizes.extend(int(size) for size in sizes)


class TestWindowedSessionBuilder:
    def builder(self, gap_s):
        builder = WindowedSessionBuilder(gap_s)
        builder.stats = SizeLog()
        return builder

    def stream_sizes(self, records, window_s, gap_s):
        builder = self.builder(gap_s)
        for window in replay(records, window_s):
            builder.observe(window)
        builder.finish()
        return sorted(builder.stats.sizes)

    def batch_sizes(self, records, gap_s):
        return sorted(s.num_flows for s in build_sessions(records, gap_s=gap_s))

    def test_matches_batch_on_gap_breaks(self):
        records = [rec(0.0, 1.0), rec(1.5, 2.0), rec(10.0, 11.0),
                   rec(11.2, 12.0), rec(30.0, 31.0)]
        for window_s in (1.0, 5.0, 100.0):
            assert self.stream_sizes(records, window_s, 2.0) == self.batch_sizes(records, 2.0)

    def test_long_flow_holds_session_open_across_windows(self):
        # A flow spanning many windows: the horizon (t_end) keeps the
        # session open even after its start window sealed long ago.
        records = [rec(0.0, 50.0), rec(51.0, 52.0)]
        assert self.stream_sizes(records, window_s=5.0, gap_s=2.0) == [2]

    def test_sessions_close_only_past_sealed_boundary(self):
        # The boundary is the last t_start sealed: a session is counted
        # once it lies a gap behind the boundary, and not before.
        builder = self.builder(gap_s=2.0)
        builder.observe(FlowTable([rec(5.0, 6.0)]))
        builder.observe(FlowTable([rec(7.5, 8.0, src=2)]))
        assert builder.stats.sizes == []  # 7.5 - 6 < 2: a flow may still join
        builder.observe(FlowTable([rec(8.0, 8.5, src=3)]))
        assert builder.stats.sizes == [1]  # 8 - 6 >= 2: closed
        builder.finish()
        assert sorted(builder.stats.sizes) == [1, 1, 1]

    def test_break_inside_a_window_then_join_from_the_next(self):
        # b breaks from a inside window [0, 10); c starts in the next
        # window within the gap of b's horizon, so it joins b's session.
        a, b, c = rec(0.0, 1.0), rec(5.0, 9.5), rec(10.5, 11.0)
        builder = self.builder(gap_s=2.0)
        first, second = replay([a, b, c], window_s=10.0)
        builder.observe(first)
        assert builder.stats.sizes == [1]
        builder.observe(second)
        assert builder.stats.sizes == [1]
        builder.finish()
        assert builder.stats.sizes == [1, 2]

    def test_counts_into_the_session_histogram(self):
        records = [rec(float(i), float(i) + 0.1, src=i % 3) for i in range(30)]
        assert session_histogram(records, window_s=4.0, gap_s=2.0) == (
            flows_per_session_histogram(build_sessions(records, gap_s=2.0))
        )

    def test_rejects_nonpositive_gap(self):
        with pytest.raises(ValueError):
            WindowedSessionBuilder(0.0)


class TestReplaySources:
    def test_replay_ends_with_infinite_watermark(self):
        # The clock never passes the end of 10**9 s, yet the records are
        # windowed: at the end of input everything left is sealed.
        windows = replay([rec(1.0, 2.0), rec(2e9, 2e9 + 1.0)], window_s=1e10)
        assert concatenated(windows) == [rec(1.0, 2.0), rec(2e9, 2e9 + 1.0)]

    def test_watermark_lag_tolerates_local_disorder(self):
        records = [rec(0.0, 1.0), rec(3.0, 4.0), rec(2.0, 3.0), rec(9.0, 9.5)]
        windows = replay(records, window_s=5.0, lag_s=2.0)
        assert [r.t_start for r in concatenated(windows)] == [0.0, 2.0, 3.0, 9.0]

    def test_no_lag_rejects_out_of_order_records(self):
        with pytest.raises(ValueError, match="behind the newest"):
            replay([rec(5.0, 6.0), rec(1.0, 2.0)], window_s=1.0)

    def test_negative_lag_rejected(self):
        with pytest.raises(ValueError):
            replay([], lag_s=-1.0)

    def test_flow_log_replay_equals_in_memory_replay(self, tmp_path):
        records = [rec(float(i), float(i) + 0.5, dst=100 + i % 3)
                   for i in range(20)]
        path = tmp_path / "flows.tsv"
        write_flow_log(records, path)
        from_file = concatenated(replay(iter_flow_log(path), window_s=3.0))
        assert from_file == concatenated(replay(records, window_s=3.0)) == records


class TestStreamingDigest:
    def test_matches_canonical_serialisation(self):
        records = [rec(3.0, 4.0), rec(1.0, 2.0), rec(1.0, 5.0)]
        digest = hashlib.sha256()
        windows = replay(records, window_s=1.0, lag_s=10.0)
        assert len(windows) == 2  # hashed window by window
        for win in windows:
            update_digest(digest, win)
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
        assert session_histogram(eu1_adsl.dataset.records) == batch

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
        return replay(records, window_s, lag_s=1e9)

    def test_traffic_accumulator_totals(self):
        records = [rec(0.0, 1.0, src=1, dst=100, num_bytes=500),
                   rec(5.0, 6.0, src=2, dst=100, num_bytes=4000),
                   rec(25.0, 26.0, src=1, dst=101, num_bytes=7000)]
        acc = TrafficAccumulator()
        for win in self.windows_of(records):
            acc.observe(win)
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
            acc.observe(win)
        stats = acc._servers[100]
        assert stats.num_flows == 2 and stats.video_flows == 1

    def test_hourly_accumulator_counts_video_flows_per_hour(self):
        records = [rec(10.0, 11.0), rec(3620.0, 3621.0),
                   rec(3630.0, 3631.0, num_bytes=10)]  # control flow
        acc = HourlyShareAccumulator()
        for win in self.windows_of(records, window_s=1800.0):
            acc.observe(win)
        assert acc._counts == {100: {0: 1, 1: 1}}

    def test_session_stats_histogram_parity(self):
        records = [rec(float(i), float(i) + 0.1) for i in range(5)]
        sessions = build_sessions(records, gap_s=0.5)
        acc = SessionStatsAccumulator()
        acc.add_sizes([s.num_flows for s in sessions])
        assert acc.histogram() == flows_per_session_histogram(sessions)

    def test_empty_histogram_raises(self):
        with pytest.raises(ValueError):
            SessionStatsAccumulator().histogram()


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

    def test_sessions_stream_absorbs_disorder_within_the_lag(self, tmp_path, eu1_adsl):
        """A real log whose lines are shuffled within 5 s: ``--lag-s 5``
        prints the batch bytes."""
        rng = random.Random(5)
        keyed = [(r.t_start + 5.0 * rng.random(), r) for r in eu1_adsl.dataset.records]
        shuffled = [r for _, r in sorted(keyed, key=lambda pair: pair[0])]
        assert shuffled != eu1_adsl.dataset.records
        path = tmp_path / "flows.tsv"
        write_flow_log(shuffled, path)
        args = ("sessions", "--flows", str(path), "--gaps", "1,10,60")
        code, batch = self.run(*args)
        assert code == 0
        code, streamed = self.run(*args, "--stream", "--window-s", "1800", "--lag-s", "5")
        assert code == 0
        assert streamed == batch

    def test_sessions_stream_empty_log(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("")
        code, text = self.run("sessions", "--flows", str(path), "--stream")
        assert code == 1
        assert "flow log is empty" in text
