"""Tests for the longitudinal monitoring subsystem (:mod:`repro.monitor`).

Unit coverage for evolution plans, the edge-cloud accumulator, snapshot
construction, clustering, the pattern-dissimilarity metric, alarms and
scoring — plus integration coverage of :func:`repro.monitor.run.run_monitor`
(static vs evolving vs faulted worlds, epoch caching) and the ``repro
monitor`` / ``repro trace summary --json`` CLI surfaces.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main as cli_main
from repro.core.folds import EdgeCloudAccumulator
from repro.defaults import DEFAULT_THRESHOLD
from repro.monitor.cluster import cluster_snapshot
from repro.monitor.detect import (
    Alarm,
    detect_alarms,
    pattern_dissimilarity,
    score_detection,
)
from repro.monitor.evolution import (
    EvolutionPlan,
    EvolutionStep,
    STATIC_PLAN,
    load_evolution,
    standard_evolution,
)
from repro.monitor.report import render_timeline
from repro.monitor.run import run_monitor
from repro.monitor.snapshot import EpochSnapshot, build_epoch_snapshot
from repro.spec.model import SpecError
from repro.trace.records import FlowRecord

from tests.oracle import table_of

SCALE = 0.01
SEED = 7
EPOCH_S = 86400.0


def run_cli(*argv):
    out = io.StringIO()
    code = cli_main(list(argv), out=out)
    return code, out.getvalue()


# A single deterministic planted change: the preferred mapping flips at
# epoch 2.  Kept small so integration fixtures stay cheap.
def planted_plan() -> EvolutionPlan:
    return EvolutionPlan(steps=(
        EvolutionStep(
            epoch=2,
            changes={"preferred_override": "dc-frankfurt"},
            label="preferred flip",
        ),
    ))


# --------------------------------------------------------------- evolution


class TestEvolutionPlan:
    def test_step_rejects_epoch_zero(self):
        with pytest.raises(SpecError):
            EvolutionStep(epoch=0, changes={"policy": "proportional"})

    def test_step_rejects_empty_spec(self):
        with pytest.raises(SpecError):
            EvolutionStep(epoch=3, changes={})

    def test_steps_sorted_by_epoch(self):
        plan = EvolutionPlan(steps=(
            EvolutionStep(epoch=5, changes={"policy": "proportional"}),
            EvolutionStep(epoch=2, changes={"preferred_override": "dc-frankfurt"}),
        ))
        assert [s.epoch for s in plan.steps] == [2, 5]

    def test_spec_at_is_cumulative(self):
        plan = planted_plan()
        assert plan.spec_at(1) == {}
        applied = plan.spec_at(2)
        assert applied["preferred_override"] == "dc-frankfurt"
        assert plan.spec_at(7) == applied

    def test_change_epochs_horizon(self):
        plan = standard_evolution()
        assert plan.change_epochs() == (2, 4, 6)
        assert plan.change_epochs(5) == (2, 4)
        assert plan.change_epochs(1) == ()

    def test_labels_at(self):
        plan = planted_plan()
        assert plan.labels_at(2) == ("preferred flip",)
        assert plan.labels_at(3) == ()

    def test_static_plan(self):
        assert STATIC_PLAN.is_static
        assert STATIC_PLAN.change_epochs(100) == ()
        assert STATIC_PLAN.spec_at(5) == {}

    def test_json_round_trip(self):
        plan = standard_evolution()
        again = EvolutionPlan.from_json(plan.to_json())
        assert again == plan

    def test_from_json_rejects_unknown_keys(self):
        with pytest.raises(SpecError):
            EvolutionPlan.from_json('{"steps": [], "extra": 1}')
        with pytest.raises(SpecError):
            EvolutionPlan.from_json('{"steps": [{"epoch": 1, "what": 2}]}')
        with pytest.raises(SpecError, match="unknown par 'warp'"):
            EvolutionPlan.from_json('{"steps": [{"epoch": 1, "changes": {"warp": 2}}]}')

    def test_load_evolution(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(planted_plan().to_json(), encoding="utf-8")
        assert load_evolution(str(path)) == planted_plan()


# ------------------------------------------------------------- accumulator


def _table(records):
    return table_of(records)


def _flow(src, dst, num_bytes):
    return FlowRecord(src_ip=src, dst_ip=dst, num_bytes=num_bytes,
                      t_start=0.0, t_end=1.0, video_id="v" * 11,
                      resolution="360p")


class TestEdgeCloudAccumulator:
    def test_cells_and_totals(self):
        acc = EdgeCloudAccumulator(lambda ip: "Net-1" if ip < 100 else "Net-2")
        acc.observe(_table([
            _flow(1, 0x01020304, 1000),
            _flow(2, 0x01020305, 500),   # same /24 as above
            _flow(200, 0x0A000001, 300),
        ]))
        acc.observe(_table([_flow(3, 0x01020399, 50)]))
        cells = acc.cells()
        assert cells == sorted(cells)
        by_key = {(s, p): (b, f) for s, p, b, f in cells}
        assert by_key[("Net-1", 0x010203)] == (1550, 3)
        assert by_key[("Net-2", 0x0A0000)] == (300, 1)
        assert acc.bytes_total == 1850
        assert acc.flows_total == 4

    def test_unknown_subnet_skipped(self):
        acc = EdgeCloudAccumulator(lambda ip: None)
        acc.observe(_table([_flow(1, 0x01020304, 1000)]))
        assert acc.cells() == []
        assert acc.flows_total == 0

    def test_representative_ip_is_lowest(self):
        acc = EdgeCloudAccumulator(lambda ip: "Net-1")
        acc.observe(_table([
            _flow(1, 0x01020310, 1), _flow(1, 0x01020304, 1),
        ]))
        assert acc.representative_ip(0x010203) == 0x01020304
        with pytest.raises(KeyError):
            acc.representative_ip(0x999999)

    def test_prefix_len_validated(self):
        with pytest.raises(ValueError):
            EdgeCloudAccumulator(lambda ip: "x", prefix_len=0)


# ---------------------------------------------------------------- snapshot


def _tiny_world():
    # A fresh world per snapshot: worlds are stateful once streamed
    # (exactly why run_monitor builds one per epoch).
    from repro.sim.scenarios import PAPER_SCENARIOS, build_world

    return build_world(PAPER_SCENARIOS["EU1-ADSL"], scale=0.005, seed=SEED,
                       duration_s=EPOCH_S)


@pytest.fixture(scope="module")
def tiny_snapshot():
    return build_epoch_snapshot(_tiny_world(), epoch=0, rtt_seed=123)


class TestEpochSnapshot:
    def test_shape(self, tiny_snapshot):
        snap = tiny_snapshot
        assert snap.name == "EU1-ADSL"
        assert snap.flows_total == sum(c[3] for c in snap.cells)
        assert snap.bytes_total == sum(c[2] for c in snap.cells)
        assert snap.probes_lost == 0
        measured = dict(snap.rtt_ms)
        prefixes = {c[1] for c in snap.cells}
        assert set(measured) <= prefixes

    def test_shares_sum_to_one(self, tiny_snapshot):
        assert sum(tiny_snapshot.prefix_shares().values()) == pytest.approx(1.0)
        assert sum(tiny_snapshot.subnet_shares().values()) == pytest.approx(1.0)

    def test_digest_stable_and_json(self, tiny_snapshot):
        again = build_epoch_snapshot(_tiny_world(), epoch=0, rtt_seed=123)
        assert again.digest() == tiny_snapshot.digest()
        doc = json.loads(tiny_snapshot.to_json())
        assert doc["epoch"] == 0
        assert doc["flows_total"] == tiny_snapshot.flows_total

    def test_rtt_seed_changes_digest(self, tiny_snapshot):
        other = build_epoch_snapshot(_tiny_world(), epoch=0, rtt_seed=124)
        assert other.digest() != tiny_snapshot.digest()


# -------------------------------------------------------------- clustering


def _snap(cells, rtt_ms):
    return EpochSnapshot(
        name="t", epoch=0, duration_s=1.0, prefix_len=24,
        cells=tuple(cells), rtt_ms=tuple(sorted(rtt_ms.items())),
        bytes_total=sum(c[2] for c in cells),
        flows_total=sum(c[3] for c in cells),
        probes_lost=0,
    )


class TestClustering:
    def test_gap_splits_clouds(self):
        snap = _snap(
            [("Net-1", 1, 600, 6), ("Net-1", 2, 300, 3), ("Net-1", 3, 100, 1)],
            {1: 10.0, 2: 12.0, 3: 40.0},
        )
        clustered = cluster_snapshot(snap, rtt_gap_ms=8.0)
        assert [set(c.prefixes) for c in clustered.clouds] == [{1, 2}, {3}]
        near = clustered.clouds[0]
        # Byte-weighted centroid of 10ms (600 B) and 12ms (300 B).
        assert near.rtt_ms == pytest.approx((600 * 10 + 300 * 12) / 900, abs=1e-3)
        assert clustered.dominant is near

    def test_unprobed_prefixes_pool(self):
        snap = _snap(
            [("Net-1", 1, 500, 5), ("Net-1", 2, 250, 2), ("Net-1", 3, 250, 2)],
            {1: 10.0},
        )
        clustered = cluster_snapshot(snap)
        unprobed = [c for c in clustered.clouds if c.rtt_ms is None]
        assert len(unprobed) == 1
        assert set(unprobed[0].prefixes) == {2, 3}
        assert unprobed[0].share == pytest.approx(0.5)

    def test_share_ordering(self):
        snap = _snap(
            [("Net-1", 1, 100, 1), ("Net-1", 2, 900, 9)],
            {1: 10.0, 2: 50.0},
        )
        clustered = cluster_snapshot(snap)
        assert clustered.clouds[0].share > clustered.clouds[1].share

    def test_bad_gap(self):
        snap = _snap([("Net-1", 1, 1, 1)], {1: 1.0})
        with pytest.raises(ValueError):
            cluster_snapshot(snap, rtt_gap_ms=0.0)

    def test_empty_snapshot(self):
        clustered = cluster_snapshot(_snap([], {}))
        assert clustered.clouds == ()
        assert clustered.dominant is None


# ----------------------------------------------------------- dissimilarity


def _clustered(cells, rtt_ms):
    return cluster_snapshot(_snap(cells, rtt_ms))


class TestDissimilarity:
    def test_identical_is_zero(self):
        a = _clustered([("Net-1", 1, 800, 8), ("Net-1", 2, 200, 2)],
                       {1: 10.0, 2: 30.0})
        assert pattern_dissimilarity(a, a) == 0.0

    def test_disjoint_is_one(self):
        a = _clustered([("Net-1", 1, 1000, 10)], {1: 10.0})
        b = _clustered([("Net-1", 2, 1000, 10)], {2: 10.0})
        assert pattern_dissimilarity(a, b) == pytest.approx(1.0)

    def test_symmetric(self):
        a = _clustered([("Net-1", 1, 700, 7), ("Net-1", 2, 300, 3)],
                       {1: 10.0, 2: 30.0})
        b = _clustered([("Net-1", 1, 300, 3), ("Net-1", 2, 700, 7)],
                       {1: 12.0, 2: 28.0})
        assert pattern_dissimilarity(a, b) == pytest.approx(
            pattern_dissimilarity(b, a))

    def test_rtt_drift_counts(self):
        a = _clustered([("Net-1", 1, 1000, 10)], {1: 10.0})
        b = _clustered([("Net-1", 1, 1000, 10)], {1: 35.0})
        # Same volume everywhere; only the centroid moved 25 ms of the
        # 50 ms full-migration scale.
        assert pattern_dissimilarity(a, b) == pytest.approx(0.5)

    def test_probe_loss_cannot_increase_distance(self):
        cells_a = [("Net-1", 1, 600, 6), ("Net-1", 2, 400, 4)]
        cells_b = [("Net-1", 1, 500, 5), ("Net-1", 2, 500, 5)]
        full = pattern_dissimilarity(
            _clustered(cells_a, {1: 10.0, 2: 30.0}),
            _clustered(cells_b, {1: 14.0, 2: 33.0}),
        )
        # Losing either side's probes (degradation) must never read as
        # *more* change.
        for rtt_a, rtt_b in (
            ({1: 10.0}, {1: 14.0, 2: 33.0}),
            ({1: 10.0, 2: 30.0}, {2: 33.0}),
            ({}, {}),
        ):
            degraded = pattern_dissimilarity(
                _clustered(cells_a, rtt_a), _clustered(cells_b, rtt_b))
            assert degraded <= full + 1e-12


# ------------------------------------------------------- alarms and scoring


class TestDetection:
    def test_alarm_epoch_mapping(self):
        # distances[i] compares epochs i and i+1: an alarm points at the
        # first epoch under the new pattern.
        alarms = detect_alarms([0.1, 0.9, 0.2, 0.8], threshold=0.5)
        assert alarms == [Alarm(epoch=2, distance=0.9),
                          Alarm(epoch=4, distance=0.8)]

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            detect_alarms([0.5], threshold=0.0)

    def test_nan_threshold_rejected(self):
        # NaN passes a "<= 0" test, and then no distance ever alarms.
        with pytest.raises(ValueError):
            detect_alarms([0.5], threshold=float("nan"))

    def test_score_perfect(self):
        score = score_detection([2, 4], [2, 4])
        assert score.precision == 1.0 and score.recall == 1.0
        assert score.f1 == 1.0
        assert score.hits == (2, 4)

    def test_score_mixed(self):
        score = score_detection([2, 3], [2, 5])
        assert score.hits == (2,)
        assert score.false_alarms == (3,)
        assert score.misses == (5,)
        assert score.precision == pytest.approx(0.5)
        assert score.recall == pytest.approx(0.5)

    def test_score_empty_cases(self):
        assert score_detection([], []).precision == 1.0
        assert score_detection([], []).recall == 1.0
        assert score_detection([], [3]).recall == 0.0
        assert score_detection([3], []).precision == 0.0

    def test_score_as_dict(self):
        doc = score_detection([2], [2]).as_dict()
        assert doc == {"hits": [2], "misses": [], "false_alarms": [],
                       "precision": 1.0, "recall": 1.0, "f1": 1.0}


# -------------------------------------------------------------- run_monitor


@pytest.fixture(scope="module")
def static_report():
    return run_monitor("EU1-ADSL", plan=STATIC_PLAN, epochs=4,
                       epoch_s=EPOCH_S, scale=SCALE, seed=SEED)


@pytest.fixture(scope="module")
def planted_report():
    return run_monitor("EU1-ADSL", plan=planted_plan(), epochs=4,
                       epoch_s=EPOCH_S, scale=SCALE, seed=SEED)


class TestRunMonitor:
    def test_static_world_no_alarms(self, static_report):
        assert static_report.alarm_epochs() == []
        assert static_report.score.precision == 1.0
        assert static_report.score.recall == 1.0

    def test_planted_change_detected_at_right_epoch(self, planted_report):
        assert planted_report.alarm_epochs() == [2]
        assert planted_report.truth == (2,)
        assert planted_report.score.f1 == 1.0

    def test_rows_shape(self, planted_report):
        rows = planted_report.rows
        assert [r.epoch for r in rows] == [0, 1, 2, 3]
        assert rows[0].distance is None
        assert all(r.distance is not None for r in rows[1:])
        assert rows[2].alarm and rows[2].changes == ("preferred flip",)
        assert all(len(r.digest) == 64 for r in rows)
        assert all(not r.cached for r in rows)
        assert all(r.degradation == {} for r in rows)

    def test_static_epochs_differ_only_by_sampling(self, static_report):
        distances = [r.distance for r in static_report.rows[1:]]
        assert max(distances) < DEFAULT_THRESHOLD / 2

    def test_as_dict_shape(self, planted_report):
        doc = planted_report.as_dict()
        assert doc["epochs"] == 4 and not doc["static"]
        assert doc["verdict"]["alarms"] == [2]
        assert doc["verdict"]["score"]["f1"] == 1.0
        assert doc["epochs_cached"] == 0 and doc["epochs_computed"] == 4
        assert len(doc["timeline"]) == 4
        json.dumps(doc)  # must be JSON-clean

    def test_digest_lines(self, planted_report):
        lines = planted_report.digest_lines()
        assert len(lines) == 4
        assert all(line.startswith("digest epoch") for line in lines)

    def test_render_timeline(self, planted_report):
        text = render_timeline(planted_report)
        assert "ALARM" in text
        assert "^ scheduled: preferred flip" in text
        assert "precision 1.00  recall 1.00" in text

    def test_epochs_validated(self):
        with pytest.raises(ValueError):
            run_monitor("EU1-ADSL", epochs=0)
        with pytest.raises(ValueError):
            run_monitor("EU1-ADSL", epoch_s=0.0)

    def test_warm_rerun_extends_cached_prefix(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "on")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cold = run_monitor("EU1-ADSL", plan=planted_plan(), epochs=3,
                           epoch_s=EPOCH_S, scale=SCALE, seed=SEED)
        assert [r.cached for r in cold.rows] == [False, False, False]
        warm = run_monitor("EU1-ADSL", plan=planted_plan(), epochs=4,
                           epoch_s=EPOCH_S, scale=SCALE, seed=SEED)
        assert [r.cached for r in warm.rows] == [True, True, True, False]
        assert [r.digest for r in warm.rows[:3]] == [r.digest for r in cold.rows]
        assert warm.alarm_epochs() == [2]
        # Cached epochs key on the world each builds: a different plan
        # with the same base must not reuse them at its changed epochs.
        other = run_monitor("EU1-ADSL", plan=STATIC_PLAN, epochs=3,
                            epoch_s=EPOCH_S, scale=SCALE, seed=SEED)
        assert [r.cached for r in other.rows] == [True, True, False]

    def test_epoch_key_is_the_hand_built_stage_key(self):
        """The memoized epoch stage keys exactly the hand-built dict."""
        from repro.artifacts.keys import stage_key
        from repro.monitor.run import monitor_epoch
        from repro.sim.specs import named_scenario
        from repro.spec.model import apply_to_scenario

        scenario, policy = apply_to_scenario(
            named_scenario("EU1-ADSL"), planted_plan().spec_at(2)
        )
        key = monitor_epoch.cache_key(
            scenario, policy, 2, EPOCH_S, SCALE, SEED, 4, 24
        )
        assert key == stage_key(
            "monitor/epoch",
            {
                "scenario": scenario,
                "policy": policy,
                "epoch": 2,
                "epoch_s": EPOCH_S,
                "scale": SCALE,
                "seed": SEED,
                "probes": 4,
                "prefix_len": 24,
            },
        )


class TestRunMonitorFaulted:
    @pytest.fixture()
    def probe_faults(self):
        from repro import obs
        from repro.faults.plan import FaultPlan, clear_current_plan, set_current_plan

        obs.new_run("monitor-faults")
        set_current_plan(FaultPlan(probe_loss=0.3))
        yield
        clear_current_plan()
        obs.set_current_run(None)

    def test_degradation_is_not_change(self, probe_faults, static_report):
        faulted = run_monitor("EU1-ADSL", plan=STATIC_PLAN, epochs=4,
                              epoch_s=EPOCH_S, scale=SCALE, seed=SEED)
        assert faulted.alarm_epochs() == []
        assert faulted.score.precision == 1.0 and faulted.score.recall == 1.0
        lost = sum(r.probes_lost for r in faulted.rows)
        assert lost > 0, "fault plan injected nothing; test is vacuous"
        degraded_rows = [r for r in faulted.rows if r.degradation]
        assert degraded_rows, "per-epoch degradation counters missing"
        text = render_timeline(faulted)
        assert "probes_lost=" in text
        # The clean baseline saw no degradation at all.
        assert all(r.degradation == {} for r in static_report.rows)


# --------------------------------------------------------------------- CLI


class TestMonitorCLI:
    def test_timeline_output(self):
        code, text = run_cli(
            "monitor", "--scale", str(SCALE), "--epochs", "4", "--static",
        )
        assert code == 0
        assert text.startswith("MONITOR EU1-ADSL")
        assert "alarms at epochs: (none)" in text

    def test_json_output(self):
        code, text = run_cli(
            "monitor", "--scale", str(SCALE), "--epochs", "4", "--static",
            "--json",
        )
        assert code == 0
        doc = json.loads(text)
        assert doc["static"] is True
        assert doc["verdict"]["alarms"] == []
        assert len(doc["timeline"]) == 4

    def test_plan_file_and_digests(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(planted_plan().to_json(), encoding="utf-8")
        code, text = run_cli(
            "monitor", "--scale", str(SCALE), "--epochs", "3",
            "--plan", str(path), "--digests",
        )
        assert code == 0
        assert "^ scheduled: preferred flip" in text
        digests = [line for line in text.splitlines()
                   if line.startswith("digest epoch")]
        assert len(digests) == 3

    def test_bad_plan_fails_fast(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text('{"steps": [{"epoch": 0, "changes": {"policy": "proportional"}}]}',
                        encoding="utf-8")
        code, _ = run_cli("monitor", "--plan", str(path))
        assert code == 2
        code, _ = run_cli("monitor", "--plan", str(tmp_path / "missing.json"))
        assert code == 2

    def test_trace_summary_json(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        code, _ = run_cli(
            "monitor", "--scale", "0.005", "--epochs", "2", "--static",
        )
        assert code == 0
        traces = list(tmp_path.glob("trace_*.jsonl"))
        assert len(traces) == 1
        code, text = run_cli("trace", "summary", "--json", str(traces[0]))
        assert code == 0
        doc = json.loads(text)
        assert doc["counters"].get("monitor.epochs_computed") == 2
        names = {span["name"] for span in doc["spans"]}
        assert "cli/monitor" in names

        # --json and the table agree on the tree (same spans, same order).
        code, table = run_cli("trace", "summary", str(traces[0]))
        assert code == 0
        assert "monitor/run" in table
