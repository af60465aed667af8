"""Tests for flow classification and session construction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import sessions as sessions_mod
from repro.core.flows import classify_flows, detect_size_threshold, flow_size_cdf
from repro.core.sessions import (
    HISTOGRAM_BUCKETS,
    flows_per_session_histogram,
    multi_flow_fraction,
)
from repro.trace.records import FlowRecord

from tests.oracle import table_of
from tests.oracle.sessions import sessions_of


def build_sessions(records, gap_s=1.0):
    """The sessions of a record list."""
    return sessions_mod.build_sessions(table_of(records), gap_s)


def gap_sensitivity(records):
    return sessions_mod.gap_sensitivity(table_of(records))


def flow(src=1, vid="V" * 11, t0=0.0, dur=1.0, nbytes=5000, dst=100):
    return FlowRecord(
        src_ip=src, dst_ip=dst, num_bytes=nbytes,
        t_start=t0, t_end=t0 + dur, video_id=vid, resolution="360p",
    )


class TestClassification:
    def test_threshold_split(self):
        records = [flow(nbytes=999), flow(nbytes=1000), flow(nbytes=500000)]
        classes = classify_flows(table_of(records))
        assert len(classes.control) == 1
        assert len(classes.video) == 2
        assert classes.total == 3
        assert classes.control_fraction == pytest.approx(1 / 3)

    def test_empty_fraction_raises(self):
        with pytest.raises(ValueError):
            classify_flows(table_of([])).control_fraction

    def test_size_cdf(self):
        cdf = flow_size_cdf(table_of([flow(nbytes=n) for n in (100, 200, 5000)]))
        assert cdf.fraction_below(250) == pytest.approx(2 / 3)

    def test_detect_threshold_finds_valley(self):
        records = (
            [flow(nbytes=n) for n in range(300, 900, 10)]
            + [flow(nbytes=n) for n in range(100_000, 5_000_000, 50_000)]
        )
        detected = detect_size_threshold(table_of(records))
        assert 900 <= detected <= 100_000

    def test_detect_threshold_needs_data(self):
        with pytest.raises(ValueError):
            detect_size_threshold(table_of([flow()]))


class TestSessions:
    def test_redirect_grouped(self):
        records = [
            flow(t0=0.0, dur=0.1, nbytes=500),
            flow(t0=0.3, dur=10.0, nbytes=500000),
        ]
        sessions = build_sessions(records, gap_s=1.0)
        assert len(sessions) == 1
        assert sessions.sizes.tolist() == [2]

    def test_interaction_split_at_small_gap(self):
        records = [
            flow(t0=0.0, dur=5.0),
            flow(t0=65.0, dur=5.0),  # resolution switch a minute later
        ]
        assert len(build_sessions(records, gap_s=1.0)) == 2
        assert len(build_sessions(records, gap_s=300.0)) == 1

    def test_different_videos_never_grouped(self):
        records = [flow(vid="A" * 11), flow(vid="B" * 11, t0=0.1)]
        assert len(build_sessions(records, gap_s=10.0)) == 2

    def test_different_clients_never_grouped(self):
        records = [flow(src=1), flow(src=2, t0=0.1)]
        assert len(build_sessions(records, gap_s=10.0)) == 2

    def test_overlapping_flows_grouped(self):
        records = [flow(t0=0.0, dur=30.0), flow(t0=5.0, dur=2.0)]
        sessions = build_sessions(records, gap_s=1.0)
        assert len(sessions) == 1

    def test_long_flow_extends_horizon(self):
        # flow B starts inside flow A; flow C starts just after A ends.
        records = [
            flow(t0=0.0, dur=100.0),
            flow(t0=10.0, dur=1.0),
            flow(t0=100.5, dur=1.0),
        ]
        sessions = build_sessions(records, gap_s=1.0)
        assert len(sessions) == 1
        assert sessions.sizes.tolist() == [3]

    def test_gap_validation(self):
        with pytest.raises(ValueError):
            build_sessions([flow()], gap_s=0.0)

    def test_session_properties(self):
        records = [flow(t0=3700.0, dur=1.0, nbytes=100), flow(t0=3701.5, dur=5.0, nbytes=900)]
        sessions = build_sessions(records, gap_s=1.0)
        nbytes = sessions.table.columns().num_bytes
        assert sessions.t_start.tolist() == [3700.0]
        assert sessions.client_ip.tolist() == [1]
        assert sessions.table.columns().video_ids[sessions.video_code].tolist() == ["V" * 11]
        assert nbytes[sessions.rows].sum() == 1000
        assert nbytes[sessions.first].tolist() == [100]
        assert nbytes[sessions.last].tolist() == [900]

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=3),          # client
                st.integers(min_value=0, max_value=2),          # video index
                st.floats(min_value=0.0, max_value=1000.0),     # start
                st.floats(min_value=0.1, max_value=30.0),       # duration
            ),
            min_size=1,
            max_size=40,
        ),
        st.floats(min_value=0.5, max_value=60.0),
    )
    @settings(max_examples=60)
    def test_partition_property(self, rows, gap):
        """Sessions partition the flows: every flow in exactly one session."""
        videos = ["A" * 11, "B" * 11, "C" * 11]
        records = [
            flow(src=c, vid=videos[v], t0=t0, dur=dur) for c, v, t0, dur in rows
        ]
        sessions = build_sessions(records, gap_s=gap)
        assert sorted(sessions.rows.tolist()) == list(range(len(records)))
        flattened = [f for s in sessions_of(sessions) for f in s.flows]
        assert sorted(flattened, key=repr) == sorted(records, key=repr)
        for s in sessions_of(sessions):
            keys = {(f.src_ip, f.video_id) for f in s.flows}
            assert len(keys) == 1
            starts = [f.t_start for f in s.flows]
            assert starts == sorted(starts)

    @given(st.floats(min_value=0.5, max_value=10.0), st.floats(min_value=20.0, max_value=100.0))
    @settings(max_examples=30)
    def test_larger_gap_never_more_sessions(self, small, large):
        records = [
            flow(t0=0.0, dur=1.0), flow(t0=5.0, dur=1.0), flow(t0=50.0, dur=1.0)
        ]
        assert len(build_sessions(records, large)) <= len(build_sessions(records, small))


class TestHistogram:
    def test_buckets_cover_everything(self):
        records = [flow(t0=i * 100.0) for i in range(12)]  # 12 separate sessions
        hist = flows_per_session_histogram(build_sessions(records, 1.0))
        assert set(hist) == set(HISTOGRAM_BUCKETS)
        assert sum(hist.values()) == pytest.approx(1.0)
        assert hist["1"] == pytest.approx(1.0)

    def test_overflow_bucket(self):
        records = [flow(t0=i * 0.5, dur=0.2) for i in range(12)]  # one 12-flow session
        hist = flows_per_session_histogram(build_sessions(records, 1.0))
        assert hist[">9"] == pytest.approx(1.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            flows_per_session_histogram(build_sessions([]))
        with pytest.raises(ValueError):
            multi_flow_fraction(build_sessions([]))

    def test_multi_flow_fraction(self):
        records = [
            flow(t0=0.0, dur=0.1), flow(t0=0.2, dur=1.0),  # 2-flow session
            flow(src=2, t0=100.0),                          # 1-flow session
        ]
        assert multi_flow_fraction(build_sessions(records, 1.0)) == pytest.approx(0.5)

    def test_gap_sensitivity_keys(self):
        records = [flow(t0=0.0), flow(t0=30.0)]
        result = gap_sensitivity(records)
        assert set(result) == {1.0, 5.0, 10.0, 60.0, 300.0}
        assert result[1.0]["1"] == pytest.approx(1.0)
        assert result[60.0]["2"] == pytest.approx(1.0)
