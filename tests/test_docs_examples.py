"""Executable coverage of the docs/api_tour.md walk-through.

Every section of the API tour is exercised here (at small scales), so the
documentation cannot silently rot.
"""

import pytest

from repro.core.flows import classify_flows
from repro.core.report import render_study_report
from repro.core.sessions import build_sessions, flows_per_session_histogram
from repro.sim.driver import run_scenario
from repro.trace.logio import read_flow_log, write_flow_log


@pytest.fixture(scope="module")
def tour_result():
    return run_scenario("EU1-ADSL", scale=0.005, seed=7)


class TestTourSection1Simulate:
    def test_dataset_surface(self, tour_result):
        dataset = tour_result.dataset
        assert len(dataset) > 0
        assert dataset.total_bytes > 0
        assert len(dataset.server_ips) >= 3

    def test_flow_log_roundtrip(self, tour_result, tmp_path):
        path = tmp_path / "flows.tsv"
        write_flow_log(tour_result.dataset.records, path)
        records = read_flow_log(path)
        assert records == tour_result.dataset.records


class TestTourSection2Sessions:
    def test_flows_and_sessions(self, tour_result):
        records = tour_result.dataset.records
        classes = classify_flows(records)
        assert classes.total == len(records)
        sessions = build_sessions(records, gap_s=1.0)
        histogram = flows_per_session_histogram(sessions)
        assert 0.0 < histogram["1"] <= 1.0


class TestTourSections3Through8:
    def test_pipeline_surface(self, pipeline):
        assert pipeline.summaries["EU2"].flows > 0
        assert "google" in pipeline.as_breakdowns["EU2"].byte_fractions
        assert pipeline.server_map.clusters
        report = pipeline.preferred_reports["EU1-ADSL"]
        assert 0.0 < report.byte_share(report.preferred_id) <= 1.0
        assert pipeline.site_of_ip(pipeline.dataset("EU2").server_ips[0]) is not None

    def test_geoloc_surface(self, pipeline):
        from repro.geo.landmarks import generate_landmarks

        landmarks = generate_landmarks(seed=42)
        assert len(landmarks) == 215
        sub = landmarks.subsample(40, seed=1)
        assert len(sub) == 40

    def test_whatif_surface(self):
        from repro.spec.grid import GridAxis, GridSpec
        from repro.spec.runner import render_comparison, run_grid

        grid = GridSpec(
            base="EU1-FTTH", axes=(GridAxis("variant", ("baseline", "no-spill")),)
        )
        cmp = run_grid(grid, scale=0.004, seed=7)
        assert "no-spill" in render_comparison(cmp)
        delta = (cmp.row("variant=no-spill").preferred_share
                 - cmp.row("variant=baseline").preferred_share)
        assert delta > 0.0

    def test_reporting_surface(self, pipeline, tmp_path):
        from repro.reporting.gnuplot import export_figure_cdfs

        text = render_study_report(pipeline)
        assert "Preferred data centers" in text
        script = export_figure_cdfs(
            {"EU2": pipeline.rtt_cdf("EU2")}, tmp_path, "fig02_rtt",
            x_label="RTT [ms]",
        )
        assert script.exists()
