"""Property-based invariant tests (hypothesis).

Randomised checks of the invariants the analysis stack leans on:

- Session building *partitions* the input flows: every flow lands in
  exactly one session, bytes are conserved, and an infinite gap collapses
  each (client, video) pair to a single session.
- :func:`repro.artifacts.keys.canonicalize` is deterministic, JSON-stable
  and insensitive to mapping/set iteration order.
- The columnar kernels agree flow-for-flow with the record-at-a-time spec
  in ``tests/oracle/`` on generated tables.
- A flow log replayed as sealed windows, shuffled within its lag, gives
  the batch table and the batch session sizes.

The whole module skips cleanly when hypothesis is not installed.
"""

from __future__ import annotations

import json
import random
from collections import Counter

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.artifacts.keys import canonicalize, stage_key  # noqa: E402
from repro.core.sessions import (  # noqa: E402
    PAPER_GAP_SWEEP_S,
    WindowedSessionBuilder,
    build_sessions,
    gap_sensitivity,
)
from repro.trace.columnar import FlowTable  # noqa: E402
from repro.trace.logio import sealed_log_windows  # noqa: E402
from repro.trace.records import FlowRecord  # noqa: E402

from tests.oracle import sessions as oracle_sessions  # noqa: E402
from tests.test_stream import SizeLog  # noqa: E402


def flow_records(min_size=0, max_size=60):
    """A strategy for messy flow lists: few keys, heavy overlap, ties."""

    def build(raw):
        return [
            FlowRecord(
                src_ip=client,
                dst_ip=server,
                num_bytes=num_bytes,
                t_start=t_start * 0.5,
                t_end=t_start * 0.5 + duration,
                video_id=f"vid{video}",
                resolution="360p",
            )
            for client, server, video, num_bytes, t_start, duration in raw
        ]

    record = st.tuples(
        st.integers(min_value=1, max_value=4),     # client
        st.integers(min_value=100, max_value=104),  # server
        st.integers(min_value=0, max_value=3),      # video
        st.integers(min_value=0, max_value=10**7),  # bytes
        st.integers(min_value=0, max_value=40),     # start half-seconds
        st.sampled_from([0.0, 0.25, 1.0, 5.0, 30.0]),
    )
    return st.lists(record, min_size=min_size, max_size=max_size).map(build)


gaps = st.sampled_from(list(PAPER_GAP_SWEEP_S) + [0.25, 2.5])


class TestSessionInvariants:
    @given(records=flow_records(), gap_s=gaps)
    @settings(max_examples=80, deadline=None)
    def test_sessions_partition_the_flows(self, records, gap_s):
        sessions = build_sessions(records, gap_s=gap_s)
        grouped = [f for s in sessions for f in s.flows]
        assert Counter(grouped) == Counter(records)

    @given(records=flow_records(), gap_s=gaps)
    @settings(max_examples=80, deadline=None)
    def test_bytes_are_conserved(self, records, gap_s):
        sessions = build_sessions(records, gap_s=gap_s)
        assert sum(s.total_bytes for s in sessions) == \
            sum(r.num_bytes for r in records)

    @given(records=flow_records(), gap_s=gaps)
    @settings(max_examples=80, deadline=None)
    def test_sessions_are_homogeneous_and_ordered(self, records, gap_s):
        for session in build_sessions(records, gap_s=gap_s):
            assert session.num_flows >= 1
            assert all(f.src_ip == session.client_ip for f in session.flows)
            assert all(f.video_id == session.video_id for f in session.flows)
            starts = [f.t_start for f in session.flows]
            assert starts == sorted(starts)

    @given(records=flow_records(min_size=1))
    @settings(max_examples=80, deadline=None)
    def test_infinite_gap_means_one_session_per_client_video(self, records):
        sessions = build_sessions(records, gap_s=float("inf"))
        keys = [(s.client_ip, s.video_id) for s in sessions]
        assert len(keys) == len(set(keys))
        assert set(keys) == {(r.src_ip, r.video_id) for r in records}

    @given(records=flow_records())
    @settings(max_examples=60, deadline=None)
    def test_widening_the_gap_never_adds_sessions(self, records):
        counts = [
            len(build_sessions(records, gap_s=gap))
            for gap in sorted(PAPER_GAP_SWEEP_S)
        ]
        assert counts == sorted(counts, reverse=True)


# A recursive strategy over everything canonicalize() accepts.
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**12), max_value=10**12),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
)
canonical_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=8), children, max_size=5),
        st.frozensets(st.integers(min_value=-50, max_value=50), max_size=6),
        st.binary(max_size=12),
    ),
    max_leaves=20,
)


class TestCanonicalize:
    @given(value=canonical_values)
    @settings(max_examples=120, deadline=None)
    def test_output_is_json_stable(self, value):
        canonical = canonicalize(value)
        text = json.dumps(canonical, sort_keys=True)
        assert json.loads(text) == canonical
        assert canonicalize(value) == canonical  # deterministic

    @given(mapping=st.dictionaries(st.text(max_size=8), json_scalars,
                                   min_size=2, max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_mapping_order_is_irrelevant(self, mapping):
        reversed_map = dict(reversed(list(mapping.items())))
        assert canonicalize(mapping) == canonicalize(reversed_map)
        assert stage_key("s", mapping) == stage_key("s", reversed_map)

    @given(items=st.lists(st.integers(min_value=-100, max_value=100),
                          min_size=1, max_size=8, unique=True))
    @settings(max_examples=80, deadline=None)
    def test_set_iteration_order_is_irrelevant(self, items):
        assert canonicalize(set(items)) == canonicalize(set(reversed(items)))
        assert canonicalize(frozenset(items)) == canonicalize(set(items))

    @given(items=st.lists(json_scalars, min_size=2, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_sequences_stay_order_sensitive(self, items):
        assert canonicalize(items) == canonicalize(tuple(items))
        reversed_items = list(reversed(items))
        if reversed_items != items:
            assert canonicalize(reversed_items) != canonicalize(items)


class TestKernelParity:
    @given(records=flow_records(), gap_s=gaps)
    @settings(max_examples=50, deadline=None)
    def test_session_parity(self, records, gap_s):
        got = build_sessions(records, gap_s=gap_s)
        want = oracle_sessions.build_sessions(records, gap_s=gap_s)
        assert [(s.client_ip, s.video_id, s.flows) for s in got] == \
            [(s.client_ip, s.video_id, s.flows) for s in want]

    @given(records=flow_records(min_size=1))
    @settings(max_examples=30, deadline=None)
    def test_gap_sweep_parity(self, records):
        got = gap_sensitivity(records, PAPER_GAP_SWEEP_S)
        want = oracle_sessions.gap_sensitivity(records, PAPER_GAP_SWEEP_S)
        assert list(got.items()) == list(want.items())


class TestWindowedSessions:
    """Windowed session building equals the batch index, for any window.

    Replays random flow lists as a log whose lines are shuffled within the
    lag (:func:`repro.trace.logio.sealed_log_windows`), feeds the sealed
    windows to one :class:`~repro.core.sessions.WindowedSessionBuilder`
    per gap, and demands the exact batch result: the windows concatenate
    to the stable-sorted batch table, and every gap's session sizes are
    :meth:`~repro.trace.columnar.SessionIndex.session_sizes` of it.
    """

    window_sizes = st.sampled_from([0.5, 1.0, 3.25, 10.0, 1000.0])
    lags = st.sampled_from([0.0, 0.5, 2.0, 7.5])
    gap_values = list(PAPER_GAP_SWEEP_S) + [0.25, 2.5]

    @staticmethod
    def _shuffled(records, lag_s, seed):
        """``records`` in a file order no record trails by ``lag_s`` or more.

        Each record moves later by a random fraction of the lag, so every
        record read before it starts less than ``lag_s`` after it.
        """
        rng = random.Random(seed)
        keyed = [(record.t_start + lag_s * rng.random(), record) for record in records]
        return [record for _, record in sorted(keyed, key=lambda pair: pair[0])]

    @given(records=flow_records(), window_s=window_sizes, lag_s=lags,
           seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=80, deadline=None)
    def test_streamed_sessions_equal_batch(self, records, window_s, lag_s, seed):
        logged = self._shuffled(records, lag_s, seed)
        builders = [WindowedSessionBuilder(gap) for gap in self.gap_values]
        for builder in builders:
            builder.stats = SizeLog()
        for window in sealed_log_windows(logged, window_s, lag_s):
            for builder in builders:
                builder.observe(window)
        index = FlowTable(logged).session_index()
        for gap, builder in zip(self.gap_values, builders):
            builder.finish()
            assert sorted(builder.stats.sizes) == sorted(index.session_sizes(gap).tolist())

    @given(records=flow_records(), window_s=window_sizes, lag_s=lags,
           seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=80, deadline=None)
    def test_sealed_windows_reconstruct_batch_order(self, records, window_s,
                                                    lag_s, seed):
        logged = self._shuffled(records, lag_s, seed)
        windows = list(sealed_log_windows(logged, window_s, lag_s))
        assert all(len(window) for window in windows)
        assert [record for window in windows for record in window] == sorted(
            logged, key=lambda r: (r.t_start, r.t_end)
        )
