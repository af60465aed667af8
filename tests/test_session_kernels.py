"""Session and grouped-column kernels against their record-at-a-time spec.

Figures 10-16, the attribution join, Figure 12's subnet shares, the
peering report, the monitor's edge-cloud fold and the size-threshold
detector read :class:`~repro.trace.columnar.FlowTable` columns and
:class:`~repro.core.sessions.Sessions` only.  Their spec is the record
loop each of them replaced, kept in ``tests/oracle/``; these tests hold
every kernel to it exactly — same counts, same dict and list order, same
tie-breaks — over random tables and over the simulated study at world
seeds 7 and 11.
"""

from __future__ import annotations

import random
from typing import List

import pytest

from repro.core import flows, hotspots, nonpreferred, peering, subnets
from repro.core.folds import EdgeCloudAccumulator
from repro.core.preferred import DataCenterView, PreferredDcReport
from repro.core.pipeline import StudyPipeline
from repro.core.sessions import build_sessions, multi_flow_fraction
from repro.eval.attribution import match_session_truths
from repro.geo.cities import default_atlas
from repro.geoloc.clustering import DataCenterCluster, ServerMap
from repro.sim.driver import run_all
from repro.trace.columnar import split_windows
from repro.trace.records import FlowRecord

from tests.oracle import records_of, table_of
from tests.oracle import accumulators as oracle_accumulators
from tests.oracle import attribution as oracle_attribution
from tests.oracle import flows as oracle_flows
from tests.oracle import hotspots as oracle_hotspots
from tests.oracle import nonpreferred as oracle_nonpreferred
from tests.oracle import peering as oracle_peering
from tests.oracle import sessions as oracle_sessions
from tests.oracle import subnets as oracle_subnets

#: Servers 100-103 sit in the preferred data center, 104-107 in another,
#: 108-109 were never clustered.
PREFERRED = range(100, 104)
OTHER = range(104, 108)
SERVERS = list(range(100, 110))
VIDEOS = [f"vid{i:08d}" for i in range(4)]


def synthetic_map():
    atlas = default_atlas()

    def cluster(name, city, ips):
        return DataCenterCluster(
            cluster_id=name,
            city=atlas.get(city),
            estimate=atlas.get(city).point,
            confidence_radius_km=40.0,
            server_ips=list(ips),
        )

    pref, other = cluster("pref", "Milan", PREFERRED), cluster("other", "Chicago", OTHER)
    by_ip = {ip: pref for ip in PREFERRED}
    by_ip.update({ip: other for ip in OTHER})
    server_map = ServerMap(clusters=[pref, other], by_ip=by_ip, results_by_slash24={})
    report = PreferredDcReport(
        dataset_name="random",
        views=[DataCenterView(cluster=pref, num_bytes=1), DataCenterView(cluster=other)],
        preferred_id="pref",
        total_bytes=1,
    )
    return report, server_map


def random_flows(rng: random.Random, n: int) -> List[FlowRecord]:
    """Few clients, videos and servers; redirect-like bursts and ties."""
    clients = [rng.randrange(1, 8) for _ in range(4)]
    out: List[FlowRecord] = []
    for _ in range(n):
        t_start = float(rng.randrange(0, 400)) * 0.5
        out.append(FlowRecord(
            src_ip=rng.choice(clients),
            dst_ip=rng.choice(SERVERS),
            num_bytes=rng.choice([rng.randrange(0, 1000), rng.randrange(1000, 5_000_000)]),
            t_start=t_start,
            t_end=t_start + rng.choice([0.0, 0.25, 1.0, 5.0]),
            video_id=rng.choice(VIDEOS),
            resolution="360p",
        ))
    return out


class Truth:
    """The three columns of a ground-truth log the attribution join reads."""

    def __init__(self, client_ips, video_ids, t_s):
        self.client_ips, self.video_ids, self.t_s = client_ips, video_ids, t_s

    def __len__(self) -> int:
        return len(self.t_s)


def outcome(function, *args):
    """A kernel's result, or the type and text of the error it raised."""
    try:
        return function(*args)
    except ValueError as error:
        return ValueError, str(error)


def assert_session_parity(
    sessions, spec_sessions, report, server_map, num_hours, truth, videos
):
    """Every session consumer, kernel against spec, on one session set.

    ``videos`` are the ones Figure 16's server search follows.
    """
    assert oracle_sessions.sessions_of(sessions) == spec_sessions
    for kernel, spec in (
        (nonpreferred.one_flow_breakdown, oracle_nonpreferred.one_flow_breakdown),
        (nonpreferred.two_flow_breakdown, oracle_nonpreferred.two_flow_breakdown),
        (nonpreferred.multi_flow_breakdown, oracle_nonpreferred.multi_flow_breakdown),
        (nonpreferred.session_verdicts, oracle_nonpreferred.session_verdicts),
        (nonpreferred.dns_vs_redirection_shares, oracle_nonpreferred.dns_vs_redirection_shares),
    ):
        got = outcome(kernel, sessions, report, server_map)
        want = outcome(spec, spec_sessions, report, server_map)
        assert got == want, kernel.__name__
        if isinstance(got, dict):
            assert list(got) == list(want), kernel.__name__
    for min_flows in (2, 4):
        assert nonpreferred.multi_flow_breakdown(
            sessions, report, server_map, min_flows
        ) == oracle_nonpreferred.multi_flow_breakdown(spec_sessions, report, server_map, min_flows)
    assert outcome(multi_flow_fraction, sessions) == outcome(
        oracle_sessions.multi_flow_fraction, spec_sessions
    )
    for video in [*videos, "never-seen"]:
        assert outcome(
            hotspots.hot_server_sessions, sessions, video, report, server_map, num_hours
        ) == outcome(
            oracle_hotspots.hot_server_sessions, spec_sessions, video, report, server_map,
            num_hours,
        ), video
    assert match_session_truths(sessions, truth) == oracle_attribution.match_session_truths(
        spec_sessions, truth
    )


@pytest.mark.parametrize("seed", range(12))
def test_session_consumers_on_random_tables(seed):
    rng = random.Random(seed)
    records = random_flows(rng, n=rng.choice([0, 1, 30, 150]))
    report, server_map = synthetic_map()
    truth = Truth(
        [rng.randrange(1, 8) for _ in range(60)],
        [rng.choice(VIDEOS + ["elsewhere"]) for _ in range(60)],
        [rng.uniform(-10.0, 220.0) for _ in range(60)],
    )
    for gap_s in (1.0, 5.0):
        assert_session_parity(
            build_sessions(table_of(records), gap_s),
            oracle_sessions.build_sessions(records, gap_s),
            report, server_map, 1, truth, VIDEOS,
        )


def test_hot_server_ties_go_to_the_first_contact_in_session_order():
    # Servers 101 and 100 each get two first contacts for the video;
    # client 1's session, the first in session order, landed on 101.
    video = VIDEOS[0]
    records = [
        FlowRecord(client, server, 5000, t, t + 1.0, video, "360p")
        for client, server, t in ((1, 101, 0.0), (2, 100, 0.0), (3, 100, 0.0), (4, 101, 0.0))
    ]
    report, server_map = synthetic_map()
    got = hotspots.hot_server_sessions(
        build_sessions(table_of(records)), video, report, server_map, 1
    )
    assert got.server_ip == 101
    assert got == oracle_hotspots.hot_server_sessions(
        oracle_sessions.build_sessions(records), video, report, server_map, 1
    )


@pytest.mark.parametrize("seed", range(6))
def test_size_threshold_and_classes_on_random_tables(seed):
    rng = random.Random(100 + seed)
    records = [
        FlowRecord(1, 100, size, 0.0, 1.0, VIDEOS[0], "360p")
        for size in (
            [rng.randrange(0, 2000) for _ in range(rng.randrange(0, 40))]
            + [int(10 ** rng.uniform(2.0, 6.5)) for _ in range(rng.randrange(0, 60))]
            + [100, 1000, 10_000, 999_999, 1_000_000]
        )
    ]
    table = table_of(records)
    assert outcome(flows.detect_size_threshold, table) == outcome(
        oracle_flows.detect_size_threshold, records
    )
    classes = flows.classify_flows(table)
    assert (records_of(classes.control), records_of(classes.video)) == (
        oracle_flows.classify_flows(records)
    )


@pytest.fixture(scope="module", params=[7, 11])
def study(request, pipeline, study_results):
    """The shared seed-7 study, and a seed-11 one at scale 0.01."""
    if request.param == 7:
        return pipeline, study_results
    results = run_all(scale=0.01, seed=11)
    return StudyPipeline(results, landmark_count=60, seed=11), results


def test_session_consumers_on_the_study(study):
    pipe, results = study
    for name in pipe.dataset_names:
        table = pipe.focus_tables[name]
        # The hot videos, and the first videos of the table.
        videos = [video.video_id for video in pipe.hot_videos(name)]
        videos += table.columns().video_ids[:3].tolist()
        assert_session_parity(
            pipe.sessions[name],
            oracle_sessions.build_sessions(records_of(table)),
            pipe.preferred_reports[name],
            pipe.server_map,
            pipe.dataset(name).num_hours,
            results[name].truth,
            videos,
        )


def test_subnet_shares_peering_and_threshold_on_the_study(study):
    pipe, results = study
    for name in pipe.dataset_names:
        dataset = pipe.dataset(name)
        assert flows.detect_size_threshold(dataset.table) == oracle_flows.detect_size_threshold(
            records_of(dataset.table)
        )
        report = pipe.preferred_reports[name]
        for table in (pipe.focus_tables[name], dataset.table):
            assert subnets.subnet_shares(
                dataset, report, pipe.server_map, table
            ) == oracle_subnets.subnet_shares(
                dataset, report, pipe.server_map, records_of(table)
            )
        registry = results[name].world.registry
        assert peering.analyze_peering(dataset, registry) == oracle_peering.analyze_peering(
            dataset, registry
        )


def test_edge_cloud_fold_on_the_study(study):
    pipe, _ = study
    for name in pipe.dataset_names:
        dataset = pipe.dataset(name)

        def subnet_of(client_ip, vantage=dataset.vantage):
            subnet = vantage.subnet_of(client_ip)
            return None if subnet is None else subnet.name

        got, want = EdgeCloudAccumulator(subnet_of), EdgeCloudAccumulator(subnet_of)
        for window in split_windows(dataset.table, 6 * 3600.0):
            got.observe(window)
            oracle_accumulators.observe_edge_cloud(want, window)
        assert list(got._cells.items()) == list(want._cells.items())
        assert list(got._rep_ip.items()) == list(want._rep_ip.items())
        assert (got.bytes_total, got.flows_total) == (want.bytes_total, want.flows_total)


@pytest.mark.parametrize("seed", range(4))
def test_subnet_peering_and_edge_cloud_on_random_tables(seed, us_campus):
    """Random flows from inside and outside the vantage point's plan."""
    rng = random.Random(200 + seed)
    dataset = us_campus.dataset
    inside = dataset.client_ips[:6]
    servers = dataset.server_ips
    records = []
    for _ in range(300):
        t_start = rng.uniform(0.0, 7 * 86400.0)
        records.append(FlowRecord(
            src_ip=rng.choice(inside + [1, 2]),
            dst_ip=rng.choice(servers[:5] + servers[-5:] + [3]),
            num_bytes=rng.choice([rng.randrange(0, 1000), rng.randrange(1000, 5_000_000)]),
            t_start=t_start,
            t_end=t_start + 1.0,
            video_id=rng.choice(VIDEOS),
            resolution="360p",
        ))
    table = table_of(records)
    ranked = sorted(servers)
    report, _ = synthetic_map()
    pref, other = report.views[0].cluster, report.views[1].cluster
    by_ip = {ip: (pref if rng.random() < 0.5 else other) for ip in ranked[::2]}
    server_map = ServerMap(clusters=[pref, other], by_ip=by_ip, results_by_slash24={})
    assert outcome(subnets.subnet_shares, dataset, report, server_map, table) == outcome(
        oracle_subnets.subnet_shares, dataset, report, server_map, records
    )
    shifted = type(dataset)(dataset.name, dataset.vantage, table, dataset.duration_s)
    registry = us_campus.world.registry
    assert peering.analyze_peering(shifted, registry) == oracle_peering.analyze_peering(
        shifted, registry
    )

    def subnet_of(client_ip):
        subnet = dataset.vantage.subnet_of(client_ip)
        return None if subnet is None else subnet.name

    for prefix_len in (8, 24, 32):
        got = EdgeCloudAccumulator(subnet_of, prefix_len)
        want = EdgeCloudAccumulator(subnet_of, prefix_len)
        for window in split_windows(table.select(table.columns().t_start.argsort(kind="stable")),
                                    86400.0):
            got.observe(window)
            oracle_accumulators.observe_edge_cloud(want, window)
        assert list(got._cells.items()) == list(want._cells.items())
        assert list(got._rep_ip.items()) == list(want._rep_ip.items())
        assert (got.bytes_total, got.flows_total) == (want.bytes_total, want.flows_total)
