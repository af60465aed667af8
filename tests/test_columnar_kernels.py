"""Kernel-vs-spec parity: the columnar kernels against ``tests/oracle/``.

The columnar kernels in :mod:`repro.trace.columnar` and the analysis
modules built on them must be *exact* replacements for the
record-at-a-time spec in :mod:`tests.oracle`: same session lists, same
dict order, same histograms, same CDF samples, same digests — not merely
close.  These tests drive both over randomized flow tables and the
shared simulated study and assert equality.
"""

from __future__ import annotations

import random
from typing import List

import pytest

from repro.core import flows, hotspots, loadbalance, nonpreferred, preferred
from repro.core.sessions import (
    PAPER_GAP_SWEEP_S,
    build_sessions,
    flows_per_session_histogram,
    gap_sensitivity,
)
from repro.core.folds import HourlyShareAccumulator, TrafficAccumulator
from repro.core.summary import summarize
from repro.reporting.series import Cdf
from repro.trace.columnar import FlowTable, split_windows
from repro.trace.records import FlowRecord

from tests.oracle import accumulators as oracle_accumulators
from tests.oracle import flows as oracle_flows
from tests.oracle import hotspots as oracle_hotspots
from tests.oracle import loadbalance as oracle_loadbalance
from tests.oracle import nonpreferred as oracle_nonpreferred
from tests.oracle import preferred as oracle_preferred
from tests.oracle import sessions as oracle_sessions
from tests.oracle import summary as oracle_summary


def random_flows(rng: random.Random, n: int) -> List[FlowRecord]:
    """A messy flow table: few clients/videos, heavy overlap, many ties."""
    clients = [rng.randrange(1, 6) for _ in range(3)]
    videos = [f"vid{i:07d}" for i in range(4)]
    servers = [rng.randrange(100, 120) for _ in range(5)]
    out: List[FlowRecord] = []
    for _ in range(n):
        # Coarse start grid forces t_start ties within (client, video) groups.
        t_start = float(rng.randrange(0, 40)) * 0.5
        t_end = t_start + rng.choice([0.0, 0.25, 1.0, 5.0, 30.0])
        out.append(
            FlowRecord(
                src_ip=rng.choice(clients),
                dst_ip=rng.choice(servers),
                num_bytes=rng.randrange(0, 5_000_000),
                t_start=t_start,
                t_end=t_end,
                video_id=rng.choice(videos),
                resolution=rng.choice(["240p", "360p", "480p"]),
            )
        )
    return out


def random_windows(rng: random.Random, n: int, window_s: float) -> List[FlowTable]:
    """Time-sorted flows over several hours, cut into tumbling windows.

    Half the flows are control-sized, so the video-flow thresholds of the
    accumulators see both sides; starts span six hours, so hourly keys
    vary within and across windows.
    """
    clients = [rng.randrange(1, 50) for _ in range(6)]
    videos = [f"vid{i:07d}" for i in range(7)]
    servers = [rng.randrange(100, 160) for _ in range(8)]
    records = sorted(
        (
            FlowRecord(
                src_ip=rng.choice(clients),
                dst_ip=rng.choice(servers),
                num_bytes=rng.choice(
                    [rng.randrange(0, 1000), rng.randrange(1000, 5_000_000)]
                ),
                t_start=t_start,
                t_end=t_start + rng.choice([0.0, 2.0, 90.0]),
                video_id=rng.choice(videos),
                resolution="360p",
            )
            for t_start in (float(rng.randrange(0, 6 * 3600)) for _ in range(n))
        ),
        key=lambda r: (r.t_start, r.t_end),
    )
    return list(split_windows(FlowTable(records), window_s))


def session_shape(sessions) -> list:
    """A comparable projection of a session list (records compare by value)."""
    return [(s.client_ip, s.video_id, s.flows) for s in sessions]


def traffic_state(acc: TrafficAccumulator) -> tuple:
    """Every field of a traffic accumulator, server order included."""
    servers = [
        (ip, s.num_bytes, s.num_flows, s.video_flows) for ip, s in acc._servers.items()
    ]
    return acc.flows, acc.total_bytes, sorted(acc._clients), servers


def hourly_state(acc: HourlyShareAccumulator) -> list:
    """The hourly accumulator's counts, server and hour order included."""
    return [(ip, list(hours.items())) for ip, hours in acc._counts.items()]


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
def test_build_sessions_parity(seed):
    records = random_flows(random.Random(seed), n=120)
    assert session_shape(build_sessions(records)) == session_shape(
        oracle_sessions.build_sessions(records)
    )


@pytest.mark.parametrize("seed", [10, 11, 12, 13])
def test_gap_sensitivity_parity(seed):
    records = random_flows(random.Random(seed), n=150)
    got = gap_sensitivity(records, PAPER_GAP_SWEEP_S)
    want = oracle_sessions.gap_sensitivity(records, PAPER_GAP_SWEEP_S)
    assert list(got.items()) == list(want.items())


@pytest.mark.parametrize("seed", [20, 21, 22])
def test_histogram_and_cdf_parity(seed):
    records = random_flows(random.Random(seed), n=90)
    hist = flows_per_session_histogram(build_sessions(records))
    want = oracle_sessions.histogram(
        [s.num_flows for s in oracle_sessions.build_sessions(records)]
    )
    assert list(hist.items()) == list(want.items())
    cdf = flows.flow_size_cdf(records)
    spec = oracle_flows.flow_size_cdf(records)
    assert cdf._values == spec._values
    for p in (0.01, 0.25, 0.5, 0.9, 0.99):
        assert cdf.quantile(p) == spec.quantile(p)


def test_classify_flows_parity():
    records = random_flows(random.Random(33), n=80)
    got = flows.classify_flows(records)
    want = oracle_flows.classify_flows(records)
    assert got.video == want.video
    assert got.control == want.control


@pytest.mark.parametrize("seed", [50, 51, 52, 53])
def test_traffic_accumulator_parity(seed):
    windows = random_windows(random.Random(seed), n=200, window_s=4500.0)
    got, want = TrafficAccumulator(), TrafficAccumulator()
    for window in windows:
        got.observe(window)
        oracle_accumulators.observe_traffic(want, window)
        assert traffic_state(got) == traffic_state(want)


@pytest.mark.parametrize("seed", [60, 61, 62, 63])
def test_hourly_accumulator_parity(seed):
    windows = random_windows(random.Random(seed), n=200, window_s=4500.0)
    got, want = HourlyShareAccumulator(), HourlyShareAccumulator()
    for window in windows:
        got.observe(window)
        oracle_accumulators.observe_hourly(want, window)
        assert hourly_state(got) == hourly_state(want)


def test_empty_dataset():
    assert build_sessions([]) == oracle_sessions.build_sessions([]) == []
    with pytest.raises(ValueError):
        gap_sensitivity([])
    with pytest.raises(ValueError):
        oracle_sessions.gap_sensitivity([])


def test_single_flow():
    records = [FlowRecord(1, 100, 500, 0.0, 1.0, "v" * 11, "360p")]
    sessions = build_sessions(records)
    assert len(sessions) == 1
    assert sessions[0].flows == records
    assert session_shape(sessions) == session_shape(oracle_sessions.build_sessions(records))


def test_fully_overlapping_flows():
    # All flows cover [0, 100): one session at any gap.
    records = [
        FlowRecord(1, 100 + i, 1000 + i, 0.0, 100.0, "v" * 11, "360p") for i in range(6)
    ]
    got = build_sessions(records, gap_s=1.0)
    want = oracle_sessions.build_sessions(records, gap_s=1.0)
    assert len(got) == len(want) == 1
    assert session_shape(got) == session_shape(want)


def test_t_start_ties():
    # Identical t_start, differing t_end: the (t_start, t_end) sort and the
    # running-max horizon must agree with the spec.
    records = [
        FlowRecord(1, 100, 10, 5.0, 5.0 + e, "v" * 11, "360p")
        for e in (3.0, 0.0, 1.0, 2.0)
    ] + [FlowRecord(1, 101, 10, 9.5, 20.0, "v" * 11, "360p")]
    assert session_shape(build_sessions(records, gap_s=1.0)) == session_shape(
        oracle_sessions.build_sessions(records, gap_s=1.0)
    )


def test_long_flow_covers_later_short_ones():
    # An early long flow must keep extending the horizon across breaks.
    records = [
        FlowRecord(2, 100, 10, 0.0, 50.0, "w" * 11, "360p"),
        FlowRecord(2, 101, 10, 10.0, 11.0, "w" * 11, "360p"),
        FlowRecord(2, 102, 10, 49.0, 49.5, "w" * 11, "360p"),
        FlowRecord(2, 103, 10, 60.0, 61.0, "w" * 11, "360p"),
    ]
    got = build_sessions(records, gap_s=1.0)
    assert [len(s.flows) for s in got] == [3, 1]
    assert session_shape(got) == session_shape(
        oracle_sessions.build_sessions(records, gap_s=1.0)
    )


def test_flow_table_is_a_sequence():
    records = random_flows(random.Random(1), n=10)
    table = FlowTable(records)
    assert len(table) == 10
    assert list(table) == records
    assert table[3] is records[3]


class TestStudyParity:
    """Figure-level parity over the shared simulated study.

    The pipeline fixture's server map, preferred reports, and focus
    records are the *inputs*; each analysis below runs from those inputs
    through the kernels and through the spec, and the outputs are
    compared exactly.
    """

    NAME = "EU1-ADSL"

    @pytest.fixture(scope="class")
    def inputs(self, pipeline):
        return (
            pipeline.focus_records[self.NAME],
            pipeline.preferred_reports[self.NAME],
            pipeline.server_map,
            pipeline.dataset(self.NAME).num_hours,
        )

    @pytest.fixture(scope="class")
    def windows(self, pipeline):
        """The dataset cut into six-hour windows, as the stream seals them."""
        return list(split_windows(pipeline.dataset(self.NAME).table, 6 * 3600.0))

    def test_build_sessions(self, pipeline):
        dataset = pipeline.dataset(self.NAME)
        assert session_shape(build_sessions(dataset.table)) == session_shape(
            oracle_sessions.build_sessions(dataset.records)
        )

    def test_video_flow_preference(self, inputs):
        records, report, smap, _ = inputs
        got = nonpreferred.video_flow_preference(records, report, smap)
        want = oracle_nonpreferred.video_flow_preference(records, report, smap)
        assert list(got.items()) == list(want.items())

    def test_nonpreferred_fraction(self, inputs):
        records, report, smap, _ = inputs
        assert nonpreferred.nonpreferred_fraction(
            records, report, smap
        ) == oracle_nonpreferred.nonpreferred_fraction(records, report, smap)

    def test_fig9_hourly_cdf(self, inputs):
        records, report, smap, num_hours = inputs
        got = nonpreferred.hourly_nonpreferred_cdf(records, report, smap, num_hours)
        want = oracle_nonpreferred.hourly_nonpreferred_cdf(records, report, smap, num_hours)
        assert got._values == want._values

    def test_fig13_video_cdf_and_counts(self, inputs):
        records, report, smap, _ = inputs
        counts = hotspots.nonpreferred_requests_per_video(records, report, smap)
        want = oracle_hotspots.nonpreferred_requests_per_video(records, report, smap)
        # Dict *order* matters too: downstream top-k relies on stable ties.
        assert list(counts.items()) == list(want.items())
        cdf = hotspots.nonpreferred_video_cdf(records, report, smap)
        assert cdf._values == Cdf(want.values())._values

    def test_fig14_hot_videos(self, inputs):
        records, report, smap, num_hours = inputs
        assert hotspots.top_nonpreferred_videos(
            records, report, smap, num_hours
        ) == oracle_hotspots.top_nonpreferred_videos(records, report, smap, num_hours)

    def test_fig15_server_load(self, inputs):
        records, report, smap, num_hours = inputs
        assert hotspots.preferred_server_load(
            records, report, smap, num_hours
        ) == oracle_hotspots.preferred_server_load(records, report, smap, num_hours)

    def test_fig11_load_balance(self, inputs):
        records, report, smap, num_hours = inputs
        assert loadbalance.analyze_load_balance(
            records, report, smap, num_hours
        ) == oracle_loadbalance.analyze_load_balance(records, report, smap, num_hours)

    def test_preferred_report(self, pipeline):
        dataset = pipeline.dataset(self.NAME)
        rtts = pipeline.rtt_campaigns[self.NAME]
        focus = pipeline.focus_ips[self.NAME]
        got = preferred.analyze_preferred(
            dataset, pipeline.server_map, rtts, focus_ips=focus
        )
        want = oracle_preferred.analyze_preferred(
            dataset, pipeline.server_map, rtts, focus_ips=focus
        )
        assert got == want

    def test_table1_summary(self, pipeline):
        dataset = pipeline.dataset(self.NAME)
        assert summarize(dataset) == oracle_summary.summarize(dataset)

    def test_stream_accumulators(self, windows):
        traffic, traffic_spec = TrafficAccumulator(), TrafficAccumulator()
        hourly, hourly_spec = HourlyShareAccumulator(), HourlyShareAccumulator()
        for window in windows:
            traffic.observe(window)
            oracle_accumulators.observe_traffic(traffic_spec, window)
            hourly.observe(window)
            oracle_accumulators.observe_hourly(hourly_spec, window)
        assert traffic_state(traffic) == traffic_state(traffic_spec)
        assert hourly_state(hourly) == hourly_state(hourly_spec)
