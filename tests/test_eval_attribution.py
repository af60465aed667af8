"""Tests for the ground-truth attribution scorer and the ``eval`` CLI.

The headline regression: on the baseline ``preferred`` world the blind
pipeline's session verdicts must agree with the simulator's ground truth
≥ 99 % of the time, and the inferred preferred data center must be the
one the policy actually intended — if either slips, the paper's
methodology (or our reproduction of it) has quietly broken.
"""

from __future__ import annotations

import io
import json
from unittest import mock

import pytest

from repro.cli import main
from repro.eval.attribution import (
    evaluate_policy,
    match_session_truths,
    render_attribution,
    score_attribution,
)
from repro.sim.week import TRUTH_LABELS
from repro.trace.records import Dataset

from tests.oracle import sessions as oracle_sessions


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def baseline_scores(pipeline, study_results):
    return score_attribution(pipeline, study_results, "preferred")


class TestBaselineAttribution:
    def test_scores_every_dataset(self, baseline_scores, study_results):
        assert set(baseline_scores) == set(study_results)

    def test_accuracy_at_least_99_percent(self, baseline_scores):
        """The paper's methodology must read its own baseline correctly."""
        for name, score in baseline_scores.items():
            assert score.accuracy >= 0.99, (
                f"{name}: blind verdicts agree with ground truth only "
                f"{score.accuracy:.4f} of the time"
            )

    def test_preferred_dc_inference_matches_ground_truth(
        self, baseline_scores
    ):
        for name, score in baseline_scores.items():
            assert score.preferred_match, (
                f"{name}: inferred {score.inferred_preferred_dc}, "
                f"policy intended {score.true_preferred_dc}"
            )

    def test_matrix_totals_the_matched_sessions(self, baseline_scores):
        for score in baseline_scores.values():
            assert sum(score.matrix.values()) == score.matched_sessions
            for truth, inferred in score.matrix:
                assert truth in TRUTH_LABELS and inferred in TRUTH_LABELS

    def test_coverage_is_near_total(self, baseline_scores):
        for name, score in baseline_scores.items():
            assert score.coverage >= 0.95, (
                f"{name}: only {score.coverage:.3f} of sessions matched"
            )

    def test_as_dict_is_json_ready(self, baseline_scores):
        for score in baseline_scores.values():
            document = json.loads(json.dumps(score.as_dict()))
            assert document["accuracy"] == pytest.approx(score.accuracy)
            assert document["preferred_match"] is score.preferred_match


class TestTruthMatching:
    def test_partitions_the_truth_log(self, pipeline, study_results):
        """Every truth record is assigned to ≤1 session or counted orphan."""
        for name, result in study_results.items():
            sessions = pipeline.sessions[name]
            assignments, orphans = match_session_truths(
                sessions, result.truth
            )
            assigned = [i for indices in assignments for i in indices]
            assert len(assigned) == len(set(assigned))
            assert len(assigned) + orphans == len(result.truth)

    def test_assigned_requests_share_the_session_key(
        self, pipeline, study_results
    ):
        for name, result in study_results.items():
            sessions = pipeline.sessions[name]
            assignments, _ = match_session_truths(sessions, result.truth)
            for session, indices in zip(oracle_sessions.sessions_of(sessions), assignments):
                for index in indices:
                    assert result.truth.client_ips[index] == session.client_ip
                    assert result.truth.video_ids[index] == session.video_id


class TestEvaluatePolicy:
    def test_unknown_kind_fails_before_simulating(self):
        from repro.cdn.selection import UnknownPolicyError

        with pytest.raises(UnknownPolicyError) as excinfo:
            evaluate_policy("round-robin")
        assert "registered policies" in str(excinfo.value)

    def test_small_evaluation_end_to_end(self):
        evaluation = evaluate_policy(
            "proportional", scale=0.004, seed=5, landmark_count=40,
            names=("EU1-FTTH",),
        )
        assert set(evaluation.scores) == {"EU1-FTTH"}
        assert set(evaluation.digests) == {"EU1-FTTH"}
        assert 0.0 <= evaluation.mean_accuracy <= 1.0
        text = render_attribution(evaluation)
        assert "ATTRIBUTION SCORECARD" in text
        assert "EU1-FTTH" in text


class TestEvalCli:
    def test_eval_renders_a_scorecard(self):
        code, text = run_cli(
            "eval", "--policy", "preferred", "--scale", "0.004",
            "--seed", "5", "--landmarks", "40",
        )
        assert code == 0
        assert "ATTRIBUTION SCORECARD" in text
        assert "mean accuracy" in text

    def test_plain_eval_hashes_no_week(self):
        """Only ``--digests`` and ``--json`` print digests, so only they hash."""
        with mock.patch.object(Dataset, "content_digest", side_effect=AssertionError):
            code, text = run_cli(
                "eval", "--policy", "preferred", "--scale", "0.004",
                "--seed", "5", "--landmarks", "40",
            )
        assert code == 0
        assert "mean accuracy" in text

    def test_eval_json_and_digests(self):
        code, text = run_cli(
            "eval", "--policy", "preferred", "--scale", "0.004",
            "--seed", "5", "--landmarks", "40", "--json", "--digests",
        )
        assert code == 0
        body, _, digest_block = text.partition("digest ")
        document = json.loads(body)
        assert "preferred" in document
        assert digest_block  # one line per dataset follows the JSON

    def test_unknown_policy_exits_2(self, capsys):
        code, _ = run_cli("eval", "--policy", "round-robin")
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown policy 'round-robin'" in err
        assert "registered policies" in err
        assert "gwtw" in err and "isp-te" in err and "partition" in err

    def test_empty_policy_list_exits_2(self, capsys):
        code, _ = run_cli("eval", "--policy", " , ")
        assert code == 2
        assert "names no policies" in capsys.readouterr().err


class TestStudyPolicyFlag:
    def test_stream_path_runs_the_policy(self):
        # A policy other than the default changes the week, and the stream
        # path simulates the same week as the batch path.
        args = ("study", "--policy", "isp-te", "--scale", "0.004",
                "--landmarks", "40", "--digests")
        code, batch = run_cli(*args)
        assert code == 0
        code, streamed = run_cli(*args, "--stream")
        assert code == 0
        assert streamed == batch
        code, default = run_cli(*args[:1], *args[3:])
        assert code == 0
        assert default != batch

    def test_unknown_policy_rejected_before_simulating(self, capsys):
        # The parser takes any kind; the command checks it against the
        # registry before a week is simulated.
        code, out = run_cli("study", "--policy", "round-robin")
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert err.startswith("repro study: unknown policy 'round-robin'")
        assert "registered policies" in err


class TestSpecPolicyValidation:
    def test_unknown_spec_par_policy_fails_fast(self):
        from repro.spec.model import SpecError, coerce_par

        with pytest.raises(SpecError) as excinfo:
            coerce_par("policy", "round-robin")
        message = str(excinfo.value)
        assert "registered policies" in message
        assert "gwtw" in message

    def test_registered_kinds_are_valid_pars(self):
        from repro.spec.model import coerce_par, policy_kinds

        for kind in policy_kinds():
            assert coerce_par("policy", kind) == kind

    def test_grid_axis_unknown_policy_exits_2(self, capsys):
        code, _ = run_cli(
            "grid", "run", "--axis", "policy=preferred,round-robin",
            "--scale", "0.004",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown policy 'round-robin'" in err
        assert "registered policies" in err
