"""Unit tests for the observability layer (``repro.obs``).

Covers the metrics registry, the span tracer and its ambient helpers,
capture/merge across a simulated process boundary, the trace export
views, the analysis layer's spans, and the run-scoping of the
degradation counters.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro import obs
from repro.obs import export
from repro.faults import report as degradation
from repro.faults.plan import FaultPlan, clear_current_plan, set_current_plan
from repro.obs.metrics import HISTOGRAM_BOUNDS, Histogram, MetricsRegistry


@pytest.fixture(autouse=True)
def fresh_run():
    """Every test gets its own run context (and leaves none behind)."""
    run = obs.new_run("test-run")
    yield run
    obs.set_current_run(None)


# ------------------------------------------------------------------ metrics


class TestMetrics:

    def test_counters_accumulate_per_label_set(self):
        reg = MetricsRegistry()
        reg.inc("cache.hit", stage="sim/run_week")
        reg.inc("cache.hit", 2, stage="sim/run_week")
        reg.inc("cache.hit", stage="cli/study")
        assert reg.counter_total("cache.hit") == 4
        snapshot = reg.snapshot()
        assert snapshot["counters"]["cache.hit{stage=sim/run_week}"] == 3
        assert snapshot["counters"]["cache.hit{stage=cli/study}"] == 1

    def test_gauges_last_write_wins(self):
        reg = MetricsRegistry()
        reg.set_gauge("workers", 4)
        reg.set_gauge("workers", 8)
        assert reg.snapshot()["gauges"]["workers"] == 8

    def test_histogram_buckets_and_extremes(self):
        hist = Histogram()
        hist.observe(5e-6)   # below the first bound
        hist.observe(0.05)   # between 1e-2 and 0.1
        hist.observe(100.0)  # overflow bucket
        assert hist.count == 3
        assert hist.counts[0] == 1
        assert hist.counts[HISTOGRAM_BOUNDS.index(0.1)] == 1
        assert hist.counts[-1] == 1
        assert hist.min == 5e-6 and hist.max == 100.0

    def test_merge_adds_counters_and_folds_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("n", 1)
        b.inc("n", 2)
        a.observe("lat", 0.5)
        b.observe("lat", 0.7)
        a.merge(b)
        assert a.counter_total("n") == 3
        merged = a.snapshot()["histograms"]["lat"]
        assert merged["count"] == 2
        assert merged["max"] == 0.7

    def test_registry_pickles(self):
        reg = MetricsRegistry()
        reg.inc("n", 3, stage="x")
        reg.observe("lat", 0.01)
        clone = pickle.loads(pickle.dumps(reg))
        assert clone.snapshot() == reg.snapshot()

    def test_snapshot_is_json_serialisable(self):
        reg = MetricsRegistry()
        reg.inc("n")
        reg.set_gauge("g", 1.5)
        reg.observe("h", 0.2)
        json.dumps(reg.snapshot())


# ------------------------------------------------------------------- tracer


class TestTracer:

    def test_spans_nest_and_link_parents(self, fresh_run):
        with obs.span("outer") as outer:
            with obs.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        records = {r.name: r for r in fresh_run.tracer.records}
        assert records["inner"].parent_id == records["outer"].span_id
        assert records["outer"].parent_id is None
        assert records["outer"].inclusive_s >= records["inner"].inclusive_s

    def test_span_ids_are_counter_based(self, fresh_run):
        with obs.span("a"):
            pass
        with obs.span("b"):
            pass
        ids = [r.span_id for r in fresh_run.tracer.records]
        assert ids == ["s1", "s2"]

    def test_inc_lands_on_registry_and_innermost_span(self, fresh_run):
        with obs.span("outer"):
            with obs.span("inner"):
                obs.inc("events", 3, stage="x")
        records = {r.name: r for r in fresh_run.tracer.records}
        assert records["inner"].counters == {"events": 3}
        assert records["outer"].counters == {}
        assert fresh_run.metrics.counter_total("events") == 3

    def test_off_switch_disables_everything(self, fresh_run, monkeypatch):
        monkeypatch.setenv(obs.ENV_TRACE, "off")
        assert not obs.trace_enabled()
        with obs.span("ignored") as active:
            assert active is None
            obs.inc("events")
            obs.observe("lat", 0.1)
        assert fresh_run.tracer.records == []
        assert fresh_run.metrics.snapshot()["counters"] == {}

    def test_attrs_survive_into_records(self, fresh_run):
        with obs.span("stage/sim", cached=True, n=5):
            pass
        (record,) = fresh_run.tracer.records
        assert record.attrs == {"cached": True, "n": 5}

    def test_spans_scoped_to_run(self, fresh_run):
        with obs.span("analysis/x"):
            pass
        assert len(fresh_run.tracer.records) == 1
        assert obs.new_run().tracer.records == []


class TestCapture:

    def test_capture_collects_spans_and_metrics(self):
        ctx = obs.SpanContext(parent_id="s9", prefix="s9.t0")
        cap = obs.task_capture(ctx, "unit", attempt=2)
        with cap:
            with obs.span("work"):
                obs.inc("units", 4)
        result = cap.result
        assert result is not None
        names = [r.name for r in result.records]
        assert "task:unit" in names and "work" in names
        root = next(r for r in result.records if r.name == "task:unit")
        assert root.parent_id == "s9"
        assert root.span_id.startswith("s9.t0.a2.")
        assert root.attrs["ok"] is True
        assert result.metrics.counter_total("units") == 4

    def test_capture_pickles_like_a_worker_result(self):
        ctx = obs.SpanContext(parent_id="s1", prefix="s1.t3")
        cap = obs.task_capture(ctx, "unit")
        with cap:
            obs.inc("n")
        clone = pickle.loads(pickle.dumps(cap.result))
        assert clone.metrics.counter_total("n") == 1
        assert [r.name for r in clone.records] == ["task:unit"]

    def test_merge_rebases_times_into_parent_clock(self, fresh_run):
        import time

        ctx = obs.SpanContext(parent_id=None, prefix="s1.t0")
        cap = obs.task_capture(ctx, "unit")
        with cap:
            pass
        obs.merge_capture(cap.result, time.perf_counter())
        (record,) = fresh_run.tracer.records
        # Rebased onto the run tracer's origin: non-negative and no
        # further in the past than the collection moment.
        assert record.t_start >= 0.0
        assert record.t_end <= fresh_run.tracer.now() + 1e-6

    def test_merge_none_is_a_noop(self, fresh_run):
        obs.merge_capture(None, 0.0)
        assert fresh_run.tracer.records == []

    def test_capture_flags_failed_tasks(self):
        cap = obs.task_capture(obs.SpanContext(None, "s1.t0"), "unit")
        with pytest.raises(RuntimeError):
            with cap:
                raise RuntimeError("task failed")
        root = cap.result.records[-1]
        assert root.attrs["ok"] is False


# -------------------------------------------------------------------- export


class TestExport:

    def _traced_run(self):
        run = obs.new_run("export-run")
        with obs.span("root"):
            with obs.span("child"):
                obs.inc("n", 2)
        return run

    def test_jsonl_roundtrip(self, tmp_path):
        run = self._traced_run()
        path = export.write_trace(run, tmp_path)
        assert path.name == "trace_export-run.jsonl"
        doc = export.read_trace(path)
        assert doc.run_id == "export-run"
        assert sorted(r.name for r in doc.spans) == ["child", "root"]
        assert doc.metrics["counters"] == {"n": 2}

    def test_read_rejects_non_trace_files(self, tmp_path):
        bogus = tmp_path / "not_a_trace.jsonl"
        bogus.write_text('{"event":"hit","stage":"x"}\n')
        with pytest.raises(ValueError, match="no run header"):
            export.read_trace(bogus)
        truncated = tmp_path / "truncated.jsonl"
        truncated.write_text('{"type":"run","run_id":"r"}\n{"type":"span"}\n')
        with pytest.raises(ValueError, match="malformed span"):
            export.read_trace(truncated)

    def test_summary_shows_tree_and_counters(self, tmp_path):
        doc = export.read_trace(export.write_trace(self._traced_run(), tmp_path))
        text = export.render_summary(doc)
        assert "TRACE export-run" in text
        assert "root" in text and "  child" in text
        assert "n=2" in text

    def test_slowest_ranks_by_exclusive_time(self, tmp_path):
        doc = export.read_trace(export.write_trace(self._traced_run(), tmp_path))
        text = export.render_slowest(doc, top=1)
        assert len(text.splitlines()) == 2  # header + one row

    def test_chrome_export_is_valid_trace_event_json(self, tmp_path):
        doc = export.read_trace(export.write_trace(self._traced_run(), tmp_path))
        out = export.write_chrome(doc, tmp_path / "chrome.json")
        payload = json.loads(out.read_text())
        events = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in events} == {"root", "child"}
        for event in events:
            assert event["ts"] >= 0 and event["dur"] >= 0

    def test_chrome_gives_worker_tasks_their_own_tracks(self):
        doc = export.TraceDoc(run_id="r", spans=[
            obs.SpanRecord("s1", None, "map", 0.0, 1.0),
            obs.SpanRecord("s1.t0.a1.s1", "s1", "task:a", 0.0, 0.5),
            obs.SpanRecord("s1.t1.a1.s1", "s1", "task:b", 0.0, 0.5),
        ])
        events = [e for e in export.to_chrome(doc)["traceEvents"] if e["ph"] == "X"]
        tids = {e["name"]: e["tid"] for e in events}
        assert tids["map"] != tids["task:a"] != tids["task:b"]

    def test_diff_reports_per_name_deltas(self):
        a = export.TraceDoc(run_id="a", spans=[
            obs.SpanRecord("s1", None, "stage/sim", 0.0, 1.0),
        ])
        b = export.TraceDoc(run_id="b", spans=[
            obs.SpanRecord("s1", None, "stage/sim", 0.0, 3.0),
        ])
        text = export.render_diff(a, b)
        assert "stage/sim" in text
        assert "+2.000" in text


# ---------------------------------------------------------- analysis spans


class TestAnalysisSpans:

    def test_analysis_spans_carry_layer_analysis(self, pipeline, fresh_run):
        pipeline.gap_sensitivity("EU1-ADSL")
        pipeline.fig13_cdf("EU1-ADSL")
        spans = [r for r in fresh_run.tracer.records if r.name.startswith("analysis/")]
        assert {"analysis/gap_sweep", "analysis/hotspots"} <= {r.name for r in spans}
        assert all(r.attrs["layer"] == "analysis" for r in spans)
        assert all("kind" not in r.attrs for r in fresh_run.tracer.records)

    def test_analysis_spans_off_with_tracing(self, pipeline, fresh_run, monkeypatch):
        monkeypatch.setenv(obs.ENV_TRACE, "off")
        pipeline.gap_sensitivity("EU1-ADSL")
        assert fresh_run.tracer.records == []


# ------------------------------------------------- degradation run-scoping


class TestDegradationScoping:

    @pytest.fixture(autouse=True)
    def _plan(self):
        set_current_plan(FaultPlan(probe_loss=0.5))
        yield
        clear_current_plan()

    def test_record_lands_on_current_run(self, fresh_run):
        degradation.record("geoloc/campaign", completed=1, probes_lost=3)
        counters = fresh_run.metrics.snapshot()["counters"]
        assert counters["degradation.probes_lost{stage=geoloc/campaign}"] == 3
        report = degradation.collect()
        assert report.total("probes_lost") == 3

    def test_new_run_starts_with_empty_collector(self):
        degradation.record("geoloc/campaign", completed=1)
        obs.new_run()
        assert degradation.collect().stages == {}
