"""Tests for the trace package: records, monitor, log I/O."""

import hashlib
import random
from dataclasses import astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdn.cluster import FlowEvent
from repro.net.ip import parse_ip
from repro.sim.scenarios import PAPER_SCENARIOS, build_world
from repro.trace import logio
from repro.trace.logio import dumps, format_record, loads, parse_record, read_flow_log, write_flow_log
from repro.trace.columnar import FlowTable
from repro.trace.monitor import EdgeMonitor
from repro.trace.records import Dataset, FlowRecord


def record(src="128.210.0.5", dst="173.194.0.10", nbytes=5000, t0=10.0, t1=20.0,
           vid="AAAAAAAAAAA", res="360p"):
    return FlowRecord(
        src_ip=parse_ip(src), dst_ip=parse_ip(dst), num_bytes=nbytes,
        t_start=t0, t_end=t1, video_id=vid, resolution=res,
    )


class TestFlowRecord:
    def test_properties(self):
        r = record()
        assert r.duration_s == 10.0
        assert r.hour == 0
        assert r.src_str == "128.210.0.5"

    def test_hour_binning(self):
        assert record(t0=3599.9, t1=3600.5).hour == 0
        assert record(t0=3600.0, t1=3700.0).hour == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            record(t0=10.0, t1=5.0)
        with pytest.raises(ValueError):
            record(nbytes=-1)


class TestDataset:
    @pytest.fixture
    def vantage(self):
        return build_world(PAPER_SCENARIOS["EU1-Campus"], scale=0.01, seed=2).vantage

    def test_aggregates(self, vantage):
        records = [record(nbytes=100), record(dst="173.194.0.11", nbytes=200)]
        ds = Dataset(name="X", vantage=vantage, table=FlowTable(records))
        assert len(ds) == 2
        assert ds.total_bytes == 300
        assert len(ds.server_ips) == 2
        assert len(ds.client_ips) == 1

    def test_duration_validated(self, vantage):
        with pytest.raises(ValueError):
            Dataset(name="X", vantage=vantage, table=FlowTable([]), duration_s=0.0)


class TestMonitor:
    @pytest.fixture
    def vantage(self):
        return build_world(PAPER_SCENARIOS["EU1-Campus"], scale=0.01, seed=2).vantage

    def make_event(self, i=0, video_id="AAAAAAAAAAA"):
        """One flow as requests hand it to the monitor (FlowEvent's fields)."""
        return astuple(FlowEvent(
            t_start=float(i), t_end=float(i) + 1.0,
            client_ip=parse_ip("128.210.0.5"), server_ip=parse_ip("173.194.0.10"),
            num_bytes=1000, video_id=video_id, resolution="360p", kind="video",
        ))

    def test_records_all_without_misses(self, vantage):
        monitor = EdgeMonitor(vantage, miss_probability=0.0)
        monitor.observe(self.make_event(i) for i in range(10))
        assert len(monitor.finish("X", 3600.0)) == 10
        assert monitor.missed == 0

    def test_miss_probability(self, vantage):
        monitor = EdgeMonitor(vantage, miss_probability=0.5, seed=1)
        monitor.observe(self.make_event(i) for i in range(1000))
        recorded = len(monitor.finish("X", 3600.0))
        assert 350 < recorded < 650
        assert monitor.missed + recorded == 1000

    def test_finish_sorts(self, vantage):
        monitor = EdgeMonitor(vantage, miss_probability=0.0)
        monitor.observe(self.make_event(i) for i in (5, 1, 3))
        ds = monitor.finish("X", 3600.0)
        starts = [r.t_start for r in ds.records]
        assert starts == sorted(starts)

    def test_validation(self, vantage):
        with pytest.raises(ValueError):
            EdgeMonitor(vantage, miss_probability=1.0)

    def _observed_ids(self, vantage, seed):
        monitor = EdgeMonitor(vantage, miss_probability=0.3, seed=seed)
        monitor.observe(self.make_event(i, video_id=f"vid{i:08d}") for i in range(200))
        return {r.video_id for r in monitor.finish("X", 3600.0).records}

    def test_same_seed_drops_the_same_flows(self, vantage):
        first = self._observed_ids(vantage, seed=17)
        second = self._observed_ids(vantage, seed=17)
        assert first == second
        assert 0 < len(first) < 200

    def test_different_seeds_drop_different_flows(self, vantage):
        assert self._observed_ids(vantage, seed=17) != \
            self._observed_ids(vantage, seed=18)

    def test_miss_counters_are_seed_deterministic(self, vantage):
        counts = []
        for _ in range(2):
            monitor = EdgeMonitor(vantage, miss_probability=0.3, seed=5)
            monitor.observe(self.make_event(i) for i in range(300))
            counts.append((monitor.observed, monitor.missed,
                           len(monitor.finish("X", 3600.0))))
        assert counts[0] == counts[1]
        assert counts[0][0] == 300
        assert counts[0][1] + counts[0][2] == 300


class TestLogIo:
    def test_roundtrip_string(self):
        records = [record(), record(dst="74.125.1.2", nbytes=999, vid="B_-123456Zz")]
        assert loads(dumps(records)) == records

    def test_roundtrip_file(self, tmp_path):
        records = [record(t0=1.5, t1=2.25)]
        path = tmp_path / "flows.tsv"
        count = write_flow_log(records, path)
        assert count == 1
        assert read_flow_log(path) == records

    def test_header_skipped(self):
        text = "# a comment\n\n" + format_record(record()) + "\n"
        assert len(loads(text)) == 1

    def test_malformed_line_raises(self):
        with pytest.raises(ValueError):
            parse_record("only\tthree\tfields")

    def test_each_distinct_address_is_parsed_once(self, tmp_path, monkeypatch):
        clients = ["128.210.0.5", "128.210.0.6", "128.210.7.1"]
        servers = ["173.194.0.10", "173.194.0.11"]
        records = [record(src=clients[i % 3], dst=servers[i % 2], t0=float(i), t1=i + 0.5)
                   for i in range(60)]
        path = tmp_path / "flows.tsv"
        write_flow_log(records, path)
        calls = []

        def counting_parse_ip(text):
            calls.append(text)
            return parse_ip(text)

        monkeypatch.setattr(logio, "parse_ip", counting_parse_ip)
        assert read_flow_log(path) == records
        assert sorted(calls) == sorted(clients + servers)
        calls.clear()
        assert list(logio.iter_flow_log(path)) == records
        assert len(calls) == 5

    def test_a_malformed_address_still_raises(self):
        good = format_record(record())
        bad = good.replace("128.210.0.5", "128.210.0.300")
        with pytest.raises(ValueError, match="malformed IPv4 address: '128.210.0.300'"):
            loads(good + "\n" + bad + "\n")

    @given(
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.integers(min_value=0, max_value=10 ** 9),
        st.floats(min_value=0.0, max_value=604800.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=3600.0, allow_nan=False),
        st.text(alphabet="ABCdef012_-", min_size=11, max_size=11),
    )
    @settings(max_examples=100)
    def test_roundtrip_property(self, src, dst, nbytes, t0, dur, vid):
        r = FlowRecord(
            src_ip=src, dst_ip=dst, num_bytes=nbytes,
            t_start=t0, t_end=t0 + dur, video_id=vid, resolution="480p",
        )
        parsed = parse_record(format_record(r))
        assert parsed.src_ip == r.src_ip
        assert parsed.dst_ip == r.dst_ip
        assert parsed.num_bytes == r.num_bytes
        assert parsed.video_id == r.video_id
        assert parsed.t_start == pytest.approx(r.t_start, abs=1e-6)
        assert parsed.t_end == pytest.approx(r.t_end, abs=1e-6)


class TestDigest:
    """``update_digest`` hashes exactly the flow-log lines, in chunks."""

    @staticmethod
    def line_by_line(records):
        digest = hashlib.sha256()
        for r in records:
            digest.update(format_record(r).encode("ascii") + b"\n")
        return digest.hexdigest()

    @staticmethod
    def records(count, seed=4):
        rng = random.Random(seed)
        addresses = [rng.randrange(1 << 32) for _ in range(7)]
        out = []
        for _ in range(count):
            t0 = rng.uniform(0.0, 604800.0)
            out.append(FlowRecord(
                src_ip=rng.choice(addresses), dst_ip=rng.choice(addresses),
                num_bytes=rng.randrange(10 ** 9), t_start=t0, t_end=t0 + rng.expovariate(0.01),
                video_id=f"v{rng.randrange(10 ** 9):010d}", resolution="360p",
            ))
        return out

    @pytest.mark.parametrize("count", [0, 1, 2, 3, 4, 7, 9])
    def test_chunks_hash_the_same_bytes(self, count, monkeypatch):
        monkeypatch.setattr(logio, "_DIGEST_CHUNK_LINES", 3)
        records = self.records(count)
        digest = hashlib.sha256()
        logio.update_digest(digest, FlowTable(records))
        assert digest.hexdigest() == self.line_by_line(records)

    def test_default_chunk_over_a_boundary(self):
        records = self.records(2 * logio._DIGEST_CHUNK_LINES + 5)
        digest = hashlib.sha256()
        logio.update_digest(digest, FlowTable(records))
        assert digest.hexdigest() == self.line_by_line(records)
