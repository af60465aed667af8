"""Tests for the methodology-validation module.

These quantify the reproduction's central credibility claim: the paper's
measurement techniques, run blind on the traces, recover the simulator's
ground truth.
"""

from types import SimpleNamespace

import pytest

from repro.core.validation import cluster_majority_dc, render_validation, validate_study


@pytest.fixture(scope="module")
def validation(pipeline, study_results):
    return validate_study(pipeline, study_results)


class TestValidation:
    def test_all_datasets_validated(self, validation, study_results):
        assert set(validation) == set(study_results)

    def test_preferred_dc_inference_correct(self, validation):
        """CBG + clustering + byte ranking lands on the true preferred data
        center at every vantage point."""
        for name, row in validation.items():
            assert row.preferred_matches, (
                f"{name}: inferred {row.inferred_preferred_cluster}, "
                f"true {row.true_preferred_dc}"
            )

    def test_nonpreferred_fraction_error_small(self, validation):
        """The Figure 9 number is recovered within a few points.

        The residual comes from known sources: the analysis counts *video
        flows* while the truth counts *requests* (redirect chains weight a
        request once), and the monitor drops ~0.2 % of flows.
        """
        for name, row in validation.items():
            assert row.nonpreferred_error < 0.06, (
                name, row.inferred_nonpreferred_fraction,
                row.true_nonpreferred_fraction,
            )

    def test_directionally_identical(self, validation):
        """Both views agree on which networks are the outliers."""
        inferred = {n: r.inferred_nonpreferred_fraction for n, r in validation.items()}
        true = {n: r.true_nonpreferred_fraction for n, r in validation.items()}
        assert max(inferred, key=inferred.get) == max(true, key=true.get) == "EU2"

    def test_render(self, validation):
        text = render_validation(validation)
        assert "METHODOLOGY VALIDATION" in text
        assert "MATCH" in text
        assert "MISMATCH" not in text


def test_majority_tie_goes_to_the_smallest_dc_id():
    owner = {1: "dc-b", 2: "dc-a", 3: "dc-c", 4: None}
    cluster = SimpleNamespace(cluster_id="c0", server_ips=[1, 2, 3, 4])
    pipeline = SimpleNamespace(server_map=SimpleNamespace(clusters=[cluster]))
    result = SimpleNamespace(truth=SimpleNamespace(dc_of_server=owner.get))
    assert cluster_majority_dc(pipeline, result, "c0") == "dc-a"
    assert cluster_majority_dc(pipeline, result, "elsewhere") is None
