"""Tests for the deterministic fault-injection layer (:mod:`repro.faults`).

Covers the plan grammar and its decision functions, the retry constants,
the injection sites (executor, campaigns, CBG, artifact store,
flow-log ingestion), degradation accounting, and the cache-key namespace
split between clean and faulted runs.
"""

import builtins
import pickle

import pytest

from repro import obs
from repro.artifacts.keys import stage_key
from repro.artifacts.store import ArtifactStore
from repro.exec.executor import ExecutionError, fan_out
from repro.faults import report as degradation
from repro.faults.plan import (
    ENV_FAULTS,
    RATE_FIELDS,
    FaultPlan,
    active_plan,
    clear_current_plan,
    current_plan,
    set_current_plan,
)
from repro.faults.report import DegradationReport, collect
from repro.faults.retry import MAX_ATTEMPTS, RETRY_ON, TransientFault, WorkerCrash
from repro.geo.coords import GeoPoint
from repro.geoloc.probing import (
    CampaignJob,
    CampaignOutcome,
    run_campaign_job,
    run_campaign_job_faulted,
)
from repro.net.latency import AccessTechnology, LatencyModel, Site
from repro.reporting.tables import render_degradation_table
from repro.trace.logio import dumps, loads
from repro.trace.records import FlowRecord
from tests.execpaths import PATH_IDS, PATHS, forced
from tests.oracle import records_of, table_of


@pytest.fixture
def install_plan():
    """Install a FaultPlan for one test; always restores a clean slate."""

    def _install(**kwargs):
        plan = FaultPlan(**kwargs)
        set_current_plan(plan)
        return plan

    obs.new_run("faults-test")
    yield _install
    clear_current_plan()
    obs.set_current_run(None)


# --------------------------------------------------------------- plan grammar


class TestFaultPlanParsing:
    def test_default_plan_is_inert(self):
        plan = FaultPlan()
        assert not plan.active
        assert active_plan() is None or True  # ambient state untouched here

    def test_any_nonzero_rate_makes_plan_active(self):
        for name in RATE_FIELDS:
            assert FaultPlan(**{name: 0.5}).active

    @pytest.mark.parametrize("field", RATE_FIELDS)
    @pytest.mark.parametrize("bad", [-0.1, 1.5])
    def test_rates_outside_unit_interval_rejected(self, field, bad):
        with pytest.raises(ValueError, match=field):
            FaultPlan(**{field: bad})

    def test_negative_failure_ceiling_rejected(self):
        with pytest.raises(ValueError, match="max_failures_per_task"):
            FaultPlan(max_failures_per_task=-1)

    def test_json_round_trip(self):
        plan = FaultPlan(seed=42, probe_loss=0.25, task_crash=0.1,
                         max_failures_per_task=3)
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_from_json_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown fault plan fields"):
            FaultPlan.from_json('{"seed": 1, "probe_losss": 0.5}')

    def test_from_json_rejects_malformed_text(self):
        with pytest.raises(ValueError, match="malformed"):
            FaultPlan.from_json("{not json")

    def test_from_json_rejects_non_objects(self):
        with pytest.raises(ValueError, match="JSON object"):
            FaultPlan.from_json("[1, 2, 3]")

    def test_from_spec_inline_json(self):
        plan = FaultPlan.from_spec('{"seed": 9, "line_garble": 0.5}')
        assert plan.seed == 9 and plan.line_garble == 0.5

    def test_from_spec_file_path(self, tmp_path):
        path = tmp_path / "chaos.json"
        path.write_text('{"seed": 3, "probe_timeout": 0.2}')
        plan = FaultPlan.from_spec(str(path))
        assert plan.seed == 3 and plan.probe_timeout == 0.2

    def test_from_spec_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            FaultPlan.from_spec("   ")

    def test_from_spec_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            FaultPlan.from_spec(str(tmp_path / "absent.json"))


class TestFaultPlanDecisions:
    def test_unit_draws_lie_in_unit_interval(self):
        plan = FaultPlan(seed=7)
        draws = [plan.unit("site", str(i)) for i in range(200)]
        assert all(0.0 <= u < 1.0 for u in draws)

    def test_decisions_are_pure_functions_of_seed_and_labels(self):
        a = FaultPlan(seed=11, probe_loss=0.5)
        b = FaultPlan(seed=11, probe_loss=0.5)
        labels = [("campaign", str(i)) for i in range(100)]
        assert [a.decide(a.probe_loss, *lb) for lb in labels] == \
            [b.decide(b.probe_loss, *lb) for lb in labels]

    def test_different_seeds_make_different_decisions(self):
        a = FaultPlan(seed=1, probe_loss=0.5)
        b = FaultPlan(seed=2, probe_loss=0.5)
        labels = [("x", str(i)) for i in range(100)]
        assert [a.decide(0.5, *lb) for lb in labels] != \
            [b.decide(0.5, *lb) for lb in labels]

    def test_zero_rate_never_fires(self):
        plan = FaultPlan(seed=5)
        assert not any(plan.decide(0.0, str(i)) for i in range(100))

    def test_unit_rate_always_fires(self):
        plan = FaultPlan(seed=5, task_crash=1.0)
        assert all(plan.decide(1.0, str(i)) for i in range(100))

    def test_empirical_rate_tracks_nominal_rate(self):
        plan = FaultPlan(seed=13, probe_loss=0.3)
        fired = sum(plan.decide(0.3, "probe", str(i)) for i in range(2000))
        assert 0.25 < fired / 2000 < 0.35

    def test_attempt_ceiling_guarantees_convergence(self):
        plan = FaultPlan(seed=1, task_transient=1.0, max_failures_per_task=2)
        assert plan.attempt_fails(1.0, 1, "t")
        assert plan.attempt_fails(1.0, 2, "t")
        assert not plan.attempt_fails(1.0, 3, "t")
        assert not plan.attempt_fails(1.0, 99, "t")

    def test_attempts_draw_independently(self):
        plan = FaultPlan(seed=21, probe_timeout=0.5, max_failures_per_task=50)
        outcomes = {plan.attempt_fails(0.5, a, "probe") for a in range(1, 51)}
        assert outcomes == {True, False}


class TestCurrentPlan:
    def test_no_plan_without_env_or_override(self, monkeypatch):
        monkeypatch.delenv(ENV_FAULTS, raising=False)
        clear_current_plan()
        assert current_plan() is None
        assert active_plan() is None

    def test_env_plan_parsed_and_reparsed_on_change(self, monkeypatch):
        clear_current_plan()
        monkeypatch.setenv(ENV_FAULTS, '{"seed": 4, "probe_loss": 0.1}')
        assert current_plan().seed == 4
        monkeypatch.setenv(ENV_FAULTS, '{"seed": 5, "probe_loss": 0.1}')
        assert current_plan().seed == 5

    def test_env_plan_from_file(self, monkeypatch, tmp_path):
        clear_current_plan()
        path = tmp_path / "plan.json"
        path.write_text('{"seed": 8, "line_garble": 0.3}')
        monkeypatch.setenv(ENV_FAULTS, str(path))
        assert current_plan().line_garble == 0.3

    def test_malformed_env_plan_fails_loudly(self, monkeypatch):
        clear_current_plan()
        monkeypatch.setenv(ENV_FAULTS, "{broken")
        with pytest.raises(ValueError):
            current_plan()

    def test_explicit_plan_wins_over_env(self, monkeypatch, install_plan):
        monkeypatch.setenv(ENV_FAULTS, '{"seed": 1, "probe_loss": 0.9}')
        plan = install_plan(seed=77, probe_loss=0.2)
        assert current_plan() is plan
        set_current_plan(None)
        assert current_plan() is None  # explicit "no plan" beats the env
        clear_current_plan()
        assert current_plan().seed == 1

    def test_inert_plan_is_not_active(self, install_plan):
        install_plan(seed=123)  # all rates zero
        assert current_plan() is not None
        assert active_plan() is None


# ------------------------------------------------------------ retry constants


def _raise_named(name):
    """Raise the :data:`RETRY_ON` type called ``name``."""
    local = {"TransientFault": TransientFault, "WorkerCrash": WorkerCrash}
    raise (local.get(name) or getattr(builtins, name))(name)


class TestRetryPolicy:
    def test_default_taxonomy_members_are_retryable(self, install_plan):
        install_plan(seed=3, probe_loss=0.5)  # active plan, no exec faults
        results = fan_out(_raise_named, list(RETRY_ON), on_error="return")
        assert [r.cause_type for r in results] == list(RETRY_ON)
        assert {r.attempts for r in results} == {MAX_ATTEMPTS}

    def test_default_policy_outlasts_default_failure_ceiling(self):
        assert MAX_ATTEMPTS > FaultPlan().max_failures_per_task


# ------------------------------------------------------------- executor site


def _identity(x):
    return x


def _plan_crash_rate(_x):
    return active_plan().task_crash


def _reject_even(x):
    if x % 2 == 0:
        raise ValueError(f"even item {x}")
    return x


class TestExecutorInjection:
    @pytest.mark.parametrize("path", PATHS, ids=PATH_IDS)
    def test_injected_transients_are_retried_to_success(
        self, path, install_plan
    ):
        install_plan(seed=3, task_transient=1.0, max_failures_per_task=1)
        with forced(path):
            assert fan_out(_identity, [1, 2, 3]) == [1, 2, 3]
        assert collect().total("retried") == 3

    def test_injected_crashes_are_retried_to_success(self, install_plan):
        install_plan(seed=3, task_crash=1.0, max_failures_per_task=2)
        assert fan_out(_identity, ["a", "b"]) == ["a", "b"]
        assert collect().total("retried") >= 1

    def test_pooled_workers_inherit_the_installed_plan(self, install_plan, monkeypatch):
        # No REPRO_FAULTS: a forked worker sees the plan installed here.
        monkeypatch.delenv(ENV_FAULTS, raising=False)
        install_plan(seed=3, task_crash=1.0, max_failures_per_task=1)
        with forced("pooled"):
            assert fan_out(_plan_crash_rate, [10, 20]) == [1.0, 1.0]
        assert collect().total("retried") == 2

    def test_exhausted_retries_surface_with_attempt_count(self, install_plan):
        install_plan(seed=3, task_transient=1.0, max_failures_per_task=99)
        results = fan_out(_identity, [5], on_error="return")
        error = results[0]
        assert isinstance(error, ExecutionError)
        assert error.cause_type == "TransientFault"
        assert error.attempts == MAX_ATTEMPTS

    def test_nonretryable_failures_are_not_retried(self, install_plan):
        install_plan(seed=3, probe_loss=0.5)  # active plan, no exec faults
        results = fan_out(_reject_even, [1, 2, 3], on_error="return")
        assert results[0] == 1 and results[2] == 3
        assert isinstance(results[1], ExecutionError)
        assert results[1].attempts == 1
        assert collect().total("retried") == 0

    def test_no_plan_means_no_default_retries(self):
        clear_current_plan()
        run = obs.new_run("no-plan")
        try:
            results = fan_out(_reject_even, [2], on_error="return")
            assert isinstance(results[0], ExecutionError)
            assert results[0].attempts == 1
            assert collect().stages == {}
            assert run.metrics.counter_total("degradation.retried") == 0
        finally:
            obs.set_current_run(None)

    def test_injection_sites_are_label_keyed_not_order_keyed(self, install_plan):
        install_plan(seed=9, task_transient=0.8, max_failures_per_task=99)
        labels = [f"unit/{i}" for i in range(12)]

        def failed_set(order):
            results = fan_out(
                _identity, [labels[i] for i in order],
                labels=[labels[i] for i in order],
                on_error="return",
            )
            return {
                label for label, r in zip([labels[i] for i in order], results)
                if isinstance(r, ExecutionError)
            }

        forward = failed_set(range(12))
        backward = failed_set(range(11, -1, -1))
        assert forward == backward
        assert 0 < len(forward) < 12

    def test_retries_counted_once_in_run_metrics(self, install_plan):
        install_plan(seed=3, task_transient=1.0, max_failures_per_task=1)
        run = obs.new_run("retries")
        try:
            fan_out(_identity, [1, 2])
            counters = run.metrics.snapshot()["counters"]
            assert counters["degradation.retried{stage=exec/map}"] == 2
            assert collect().total("retried") == 2
            assert run.metrics.counter_total("retries") == 0
            (map_span,) = [r for r in run.tracer.records if r.name == "exec/map"]
            assert "retries" not in map_span.attrs
        finally:
            obs.set_current_run(None)


class TestExecutionErrorRegressions:
    def test_attempts_survive_repeated_pickling(self):
        error = ExecutionError("t", "ValueError", "boom", "tb", attempts=3)
        clone = pickle.loads(pickle.dumps(pickle.loads(pickle.dumps(error))))
        assert clone.attempts == 3
        assert clone.label == "t"
        assert clone.cause_type == "ValueError"
        assert clone.worker_traceback == "tb"

    def test_wrap_preserves_root_cause_through_nesting(self):
        inner = ExecutionError("inner[0]", "KeyError", "lost key",
                               "inner traceback", attempts=2)
        outer = ExecutionError.wrap("outer[1]", inner, "outer traceback")
        assert outer.label == "outer[1] -> inner[0]"
        assert outer.cause_type == "KeyError"
        assert outer.cause_message == "lost key"
        assert outer.worker_traceback == "inner traceback"
        assert outer.attempts == 2

    def test_wrapped_nested_error_survives_double_pickle(self):
        # A nested-pool failure crosses two pickle boundaries; the root
        # cause must still be readable at the top.
        inner = ExecutionError("inner", "TimeoutError", "late", "root tb")
        shipped = pickle.loads(pickle.dumps(inner))
        outer = ExecutionError.wrap("outer", shipped, "outer tb")
        final = pickle.loads(pickle.dumps(outer))
        assert final.cause_type == "TimeoutError"
        assert final.worker_traceback == "root tb"
        assert "outer -> inner" in final.label

    def test_wrap_of_plain_exception_records_its_type(self):
        error = ExecutionError.wrap("t", ValueError("bad"), "tb text")
        assert error.cause_type == "ValueError"
        assert error.attempts == 1


# ------------------------------------------------------------ campaign site


def _campaign_job(n_targets=8, label="campaign/test", seed=4):
    latency = LatencyModel(seed=6)
    origin = Site("vp", GeoPoint(45.0, 7.0), AccessTechnology.CAMPUS)
    targets = {
        f"srv{i}": Site(f"srv{i}", GeoPoint(40.0 + i, 2.0 + i),
                        AccessTechnology.DATACENTER)
        for i in range(n_targets)
    }
    return CampaignJob(label=label, latency=latency, origin=origin,
                       targets=targets, probes=3, seed=seed)


class TestCampaignInjection:
    def test_clean_fallback_without_plan(self):
        clear_current_plan()
        job = _campaign_job()
        outcome = run_campaign_job_faulted(job)
        assert isinstance(outcome, CampaignOutcome)
        assert outcome.lost == outcome.timeouts == outcome.retried == 0
        assert outcome.measurements == run_campaign_job(job)

    def test_probe_loss_drops_targets_deterministically(self, install_plan):
        install_plan(seed=17, probe_loss=0.4)
        job = _campaign_job(n_targets=12)
        first = run_campaign_job_faulted(job)
        second = run_campaign_job_faulted(job)
        assert first == second
        assert 0 < first.lost < 12
        assert len(first.measurements) == 12 - first.lost

    def test_timeouts_are_retried_and_counted(self, install_plan):
        install_plan(seed=17, probe_timeout=1.0, max_failures_per_task=1)
        outcome = run_campaign_job_faulted(_campaign_job(n_targets=6))
        # Every first attempt times out, every second succeeds.
        assert len(outcome.measurements) == 6
        assert outcome.lost == 0
        assert outcome.timeouts == 6
        assert outcome.retried == 6

    def test_exhausted_timeouts_lose_the_target(self, install_plan):
        install_plan(seed=17, probe_timeout=1.0, max_failures_per_task=99)
        outcome = run_campaign_job_faulted(_campaign_job(n_targets=4))
        assert outcome.measurements == {}
        assert outcome.lost == 4
        # Each timed-out attempt counts once; the last one is not retried.
        assert outcome.timeouts == 4 * MAX_ATTEMPTS == 16
        assert outcome.retried == 4 * (MAX_ATTEMPTS - 1) == 12

    def test_surviving_measurements_match_the_clean_values(self, install_plan):
        plan = install_plan(seed=17, probe_loss=0.4)
        job = _campaign_job(n_targets=10)
        faulted = run_campaign_job_faulted(job)
        set_current_plan(None)
        clean = run_campaign_job(job)
        # Loss happens before the RNG draw, so surviving targets see a
        # shifted stream — but they must be a strict subset of the target
        # set with plausible values, and the dropped set must re-derive.
        dropped = {
            t for t in job.targets
            if plan.decide(plan.probe_loss, "probe/loss", job.label, str(t))
        }
        assert set(faulted.measurements) == set(clean) - dropped

    def test_campaign_degradation_recorded_via_unpack(self, install_plan):
        from repro.geoloc.probing import _unpack_outcome

        install_plan(seed=1, probe_loss=0.5)
        outcome = CampaignOutcome(measurements={"a": 1.0}, lost=2,
                                  timeouts=3, retried=1)
        measurements = _unpack_outcome(_campaign_job(), outcome)
        assert measurements == {"a": 1.0}
        report = collect()
        tally = report.stages["geoloc/campaign"]
        assert tally["probes_lost"] == 2
        assert tally["timeouts"] == 3
        assert tally["retried"] == 1
        assert tally["completed"] == 1


# ----------------------------------------------------------------- CBG site


class TestCbgDegradation:
    @pytest.fixture(scope="class")
    def cbg(self):
        from repro.geo.landmarks import generate_landmarks
        from repro.geoloc.cbg import CbgGeolocator
        from repro.geoloc.probing import RttProber

        landmarks = generate_landmarks(seed=42).subsample(24, seed=1)
        latency = LatencyModel(seed=123)
        return CbgGeolocator(landmarks, RttProber(latency, probes=4, seed=99))

    def _target(self):
        return Site("srv:x", GeoPoint(48.1, 11.6), AccessTechnology.DATACENTER)

    def test_measurements_complete_without_plan(self, cbg):
        clear_current_plan()
        rtts = cbg.measure_target(self._target())
        assert len(rtts) == len(cbg.landmarks)

    def test_probe_loss_keeps_at_least_four_landmarks(self, cbg, install_plan):
        install_plan(seed=5, probe_loss=1.0)
        rtts = cbg.measure_target(self._target())
        assert len(rtts) == 4
        assert collect().stages["geoloc/cbg"]["probes_lost"] == \
            len(cbg.landmarks) - 4

    def test_lost_landmark_set_is_deterministic(self, cbg, install_plan):
        install_plan(seed=5, probe_loss=0.5)
        lost_a = set(cbg.measure_target(self._target()))
        lost_b = set(cbg.measure_target(self._target()))
        assert lost_a == lost_b

    def test_widening_factor_is_exact(self, cbg):
        clear_current_plan()
        rtts = cbg.measure_target(self._target())
        subset = dict(list(rtts.items())[: len(rtts) // 2])
        base = cbg.geolocate(subset)
        widened = cbg.geolocate(subset, expected_constraints=len(rtts))
        ratio = (len(rtts) / len(subset)) ** 0.5
        assert widened.confidence_radius_km == \
            pytest.approx(base.confidence_radius_km * ratio)
        assert widened.estimate == base.estimate

    def test_no_widening_without_loss(self, cbg):
        clear_current_plan()
        rtts = cbg.measure_target(self._target())
        base = cbg.geolocate(rtts)
        same = cbg.geolocate(rtts, expected_constraints=len(rtts))
        assert same.confidence_radius_km == base.confidence_radius_km

    def test_geolocate_target_widens_under_loss(self, cbg, install_plan):
        clear_current_plan()
        clean = cbg.geolocate_target(self._target())
        install_plan(seed=5, probe_loss=0.5)
        degraded = cbg.geolocate_target(self._target())
        assert degraded.constraints_used < clean.constraints_used
        assert degraded.confidence_radius_km > 0


# --------------------------------------------------------------- store site


class TestStoreQuarantine:
    def _key(self, tag):
        return stage_key("test/quarantine", {"tag": tag})

    def test_truncated_object_is_quarantined_and_healed(self, tmp_path):
        clear_current_plan()
        store = ArtifactStore(tmp_path)
        key = self._key("heal")
        store.put(key, {"payload": 1}, stage="t")
        path = store.object_path(key)
        path.write_bytes(path.read_bytes()[:4])  # corrupt in place
        assert store.get(key, "MISS", stage="t") == "MISS"
        assert store.stats.quarantined == 1
        assert not path.exists()
        assert len(list(store.quarantine_dir.iterdir())) == 1
        # The next put heals the slot.
        store.put(key, {"payload": 2}, stage="t")
        assert store.get(key, stage="t") == {"payload": 2}

    def test_quarantine_events_reach_the_ledger(self, tmp_path):
        clear_current_plan()
        store = ArtifactStore(tmp_path)
        key = self._key("ledger")
        store.put(key, [1, 2, 3], stage="s")
        store.object_path(key).write_bytes(b"garbage")
        store.get(key, stage="s")
        lifetime = store.lifetime_counters()
        assert lifetime["total"]["quarantined"] == 1
        assert lifetime["stages"]["s"]["quarantined"] == 1

    def test_injected_corruption_quarantines(self, tmp_path, install_plan):
        install_plan(seed=2, artifact_corrupt=1.0)
        store = ArtifactStore(tmp_path)
        key = self._key("injected")
        store.put(key, "value", stage="t")
        assert store.get(key, "MISS", stage="t") == "MISS"
        assert store.stats.quarantined == 1
        assert collect().stages["artifacts/store"]["quarantined"] == 1

    def test_injected_corruption_is_key_deterministic(self, tmp_path, install_plan):
        plan = install_plan(seed=2, artifact_corrupt=0.5)
        store = ArtifactStore(tmp_path)
        hits = misses = 0
        for i in range(20):
            key = self._key(f"det{i}")
            store.put(key, i, stage="t")
            expected_corrupt = plan.decide(0.5, "artifacts/corrupt", key)
            value = store.get(key, "MISS", stage="t")
            if expected_corrupt:
                assert value == "MISS"
                misses += 1
            else:
                assert value == i
                hits += 1
        assert hits > 0 and misses > 0

    def test_inert_plan_never_corrupts(self, tmp_path, install_plan):
        install_plan(seed=2)  # all rates zero
        store = ArtifactStore(tmp_path)
        for i in range(10):
            key = self._key(f"inert{i}")
            store.put(key, i)
            assert store.get(key) == i
        assert store.stats.quarantined == 0

    def test_clear_removes_the_quarantine(self, tmp_path):
        clear_current_plan()
        store = ArtifactStore(tmp_path)
        key = self._key("clear")
        store.put(key, 1)
        store.object_path(key).write_bytes(b"x")
        store.get(key)
        assert store.quarantine_dir.is_dir()
        store.clear()
        assert not store.quarantine_dir.exists()


# --------------------------------------------------------------- logio site


def _flow_text(n=10):
    records = [
        FlowRecord(src_ip=i + 1, dst_ip=100 + i, num_bytes=1000 * (i + 1),
                   t_start=float(i), t_end=float(i) + 0.5,
                   video_id=f"v{i}", resolution="360p")
        for i in range(n)
    ]
    return dumps(table_of(records))


class TestLogioGarble:
    def test_round_trip_is_exact_without_plan(self):
        clear_current_plan()
        text = _flow_text(5)
        table = loads(text)
        assert len(table) == 5
        assert dumps(table) == text

    def test_garbled_lines_are_skipped_and_counted(self, install_plan):
        install_plan(seed=6, line_garble=1.0)
        assert len(loads(_flow_text(8))) == 0
        tally = collect().stages["trace/logio"]
        assert tally["skipped"] == 8
        assert tally["degraded"] == 1

    def test_garble_pattern_is_deterministic(self, install_plan):
        install_plan(seed=6, line_garble=0.5)
        text = _flow_text(20)
        first = [r.video_id for r in records_of(loads(text))]
        second = [r.video_id for r in records_of(loads(text))]
        assert first == second
        assert 0 < len(first) < 20

    def test_surviving_records_parse_to_clean_values(self, install_plan):
        install_plan(seed=6, line_garble=0.5)
        text = _flow_text(20)
        survivors = {r.video_id: r for r in records_of(loads(text))}
        set_current_plan(None)
        clean = {r.video_id: r for r in records_of(loads(text))}
        for video_id, record in survivors.items():
            assert record == clean[video_id]

    def test_genuinely_malformed_line_still_raises_by_default(self, install_plan):
        install_plan(seed=6, line_garble=1.0)
        # Injected garble is forgiven; pre-existing damage is not.
        set_current_plan(None)
        text = _flow_text(2) + "broken\tline\n"
        with pytest.raises(ValueError):
            loads(text)

    def test_file_reader_keys_garble_on_the_file_name(self, tmp_path, install_plan):
        from repro.trace.logio import read_flow_log

        install_plan(seed=6, line_garble=0.5)
        path_a = tmp_path / "a.tsv"
        path_b = tmp_path / "b.tsv"
        text = _flow_text(20)
        path_a.write_text(text, encoding="ascii")
        path_b.write_text(text, encoding="ascii")
        ids_a = set(read_flow_log(path_a).columns().video_ids.tolist())
        ids_b = set(read_flow_log(path_b).columns().video_ids.tolist())
        assert ids_a != ids_b  # different sources, different garble sites


# ----------------------------------------------------------- cache namespace


class TestCacheKeyNamespace:
    CONFIG = {"scale": 0.01, "seed": 7}

    def test_inert_plan_leaves_keys_untouched(self, install_plan):
        clear_current_plan()
        clean_key = stage_key("sim/run", self.CONFIG)
        install_plan(seed=42)  # inert
        assert stage_key("sim/run", self.CONFIG) == clean_key

    def test_active_plan_gets_its_own_namespace(self, install_plan):
        clear_current_plan()
        clean_key = stage_key("sim/run", self.CONFIG)
        install_plan(seed=42, probe_loss=0.1)
        assert stage_key("sim/run", self.CONFIG) != clean_key

    def test_distinct_plans_get_distinct_namespaces(self, install_plan):
        install_plan(seed=42, probe_loss=0.1)
        key_a = stage_key("sim/run", self.CONFIG)
        set_current_plan(FaultPlan(seed=43, probe_loss=0.1))
        key_b = stage_key("sim/run", self.CONFIG)
        set_current_plan(FaultPlan(seed=42, probe_loss=0.2))
        key_c = stage_key("sim/run", self.CONFIG)
        assert len({key_a, key_b, key_c}) == 3

    def test_same_plan_reproduces_the_same_namespace(self, install_plan):
        install_plan(seed=42, probe_loss=0.1)
        key_a = stage_key("sim/run", self.CONFIG)
        set_current_plan(FaultPlan(seed=42, probe_loss=0.1))
        assert stage_key("sim/run", self.CONFIG) == key_a


# ---------------------------------------------------------- degradation report


class TestDegradationReport:
    def test_record_is_a_noop_without_a_plan(self):
        clear_current_plan()
        run = obs.new_run("no-plan")
        try:
            degradation.record("stage", completed=1)
            assert collect().stages == {}
            assert run.metrics.counters == {}
        finally:
            obs.set_current_run(None)

    def test_record_counts_on_run_metrics_with_tracing_off(self, install_plan, monkeypatch):
        monkeypatch.setenv(obs.ENV_TRACE, "off")
        install_plan(seed=1, probe_loss=0.1)
        degradation.record("geoloc/cbg", degraded=1, probes_lost=4)
        assert obs.current_run().metrics.snapshot()["counters"] == {
            "degradation.degraded{stage=geoloc/cbg}": 1,
            "degradation.probes_lost{stage=geoloc/cbg}": 4,
        }

    def test_record_accumulates_and_drops_zero_deltas(self, install_plan):
        install_plan(seed=1, probe_loss=0.1)
        degradation.record("s", completed=1, retried=0)
        degradation.record("s", completed=2, probes_lost=3)
        report = collect()
        assert report.stages["s"] == {"completed": 3, "probes_lost": 3}
        assert "retried" not in report.stages["s"]

    def test_stage_completed_marks_degradation(self, install_plan):
        install_plan(seed=1, probe_loss=0.1)
        degradation.stage_completed("a")
        degradation.stage_completed("b", degraded=True)
        report = collect()
        assert report.stages["a"] == {"completed": 1}
        assert report.stages["b"] == {"completed": 1, "degraded": 1}

    def test_totals_and_degraded_flag(self):
        report = DegradationReport(stages={
            "x": {"completed": 2, "retried": 1},
            "y": {"completed": 1, "probes_lost": 4},
        })
        assert report.totals == {"completed": 3, "retried": 1, "probes_lost": 4}
        assert report.total("retried") == 1
        assert report.total("absent") == 0
        assert report.degraded

    def test_completion_alone_is_not_degradation(self):
        report = DegradationReport(stages={"x": {"completed": 5}})
        assert not report.degraded

    def test_as_dict_appends_the_total_pseudo_stage(self):
        report = DegradationReport(stages={"x": {"completed": 1}})
        doc = report.as_dict()
        assert list(doc) == ["x", "TOTAL"]
        assert doc["TOTAL"] == {"completed": 1}

    def test_render_degradation_table(self):
        report = DegradationReport(stages={
            "geoloc/campaign": {"completed": 5, "probes_lost": 7},
            "exec/map": {"retried": 2},
        })
        text = render_degradation_table(report)
        assert "DEGRADATION REPORT" in text
        assert "probes_lost" in text
        assert "geoloc/campaign" in text
        assert "TOTAL" in text
