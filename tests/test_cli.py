"""Tests for the command-line interface."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import repro

from repro.cli import build_parser, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_simulate_requires_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--out", "x.tsv"])

    def test_dataset_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate", "--dataset", "Mars", "--out", "x.tsv"]
            )


class TestSimulateAndSessions:
    def test_roundtrip(self, tmp_path):
        log = tmp_path / "flows.tsv"
        code, text = run_cli(
            "simulate", "--dataset", "EU1-FTTH", "--scale", "0.003",
            "--seed", "9", "--out", str(log),
        )
        assert code == 0
        assert "wrote" in text
        assert log.exists()

        code, text = run_cli("sessions", "--flows", str(log), "--gaps", "1,300")
        assert code == 0
        assert "T=   1.0s" in text
        assert "T= 300.0s" in text

    def test_sessions_empty_log(self, tmp_path):
        log = tmp_path / "empty.tsv"
        log.write_text("#src\n")
        code, text = run_cli("sessions", "--flows", str(log))
        assert code == 1

    def test_simulate_keeps_old_log_until_the_week_is_written(self, tmp_path, monkeypatch):
        from repro.sim import driver

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        log = tmp_path / "flows.tsv"
        log.write_text("#src\nold\n")
        # cmd_simulate looks run_scenario up in the driver when it runs.
        monkeypatch.setattr(driver, "run_scenario", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_cli("simulate", "--dataset", "EU1-FTTH", "--out", str(log))
        assert log.read_text() == "#src\nold\n"

    def test_simulate_proportional_policy(self, tmp_path):
        log = tmp_path / "old.tsv"
        code, _ = run_cli(
            "simulate", "--dataset", "EU1-FTTH", "--scale", "0.003",
            "--policy", "proportional", "--out", str(log),
        )
        assert code == 0


class TestAnonymize:
    def test_anonymize_roundtrip(self, tmp_path):
        log = tmp_path / "flows.tsv"
        code, _ = run_cli(
            "simulate", "--dataset", "EU1-FTTH", "--scale", "0.003",
            "--seed", "9", "--out", str(log),
        )
        assert code == 0
        out_log = tmp_path / "anon.tsv"
        code, text = run_cli(
            "anonymize", "--flows", str(log), "--out", str(out_log),
            "--key", "secret",
        )
        assert code == 0
        assert "anonymised" in text
        from repro.trace.logio import read_flow_log

        original = read_flow_log(log)
        anonymised = read_flow_log(out_log)
        assert len(original) == len(anonymised)
        assert {r.src_ip for r in original} != {r.src_ip for r in anonymised}
        # Metrics untouched.
        assert [r.num_bytes for r in original] == [r.num_bytes for r in anonymised]


class TestComposite:
    def test_study_summary(self):
        code, text = run_cli("study", "--scale", "0.004", "--landmarks", "40")
        assert code == 0
        assert "TABLE I" in text and "TABLE III" in text
        assert "preferred=" in text

    def test_study_full_report(self):
        code, text = run_cli(
            "study", "--scale", "0.004", "--landmarks", "40", "--full"
        )
        assert code == 0
        assert "FULL REPORT" in text
        assert "Hot spots and cold content" in text

    def test_study_with_validation(self):
        code, text = run_cli(
            "study", "--scale", "0.004", "--landmarks", "40", "--validate"
        )
        assert code == 0
        assert "METHODOLOGY VALIDATION" in text

    def test_min_scale_gives_every_dataset_a_request_a_day(self):
        from repro.defaults import MIN_SCALE
        from repro.sim.scenarios import PAPER_SCENARIOS

        least = min(spec.requests_per_day for spec in PAPER_SCENARIOS.values())
        assert MIN_SCALE == 1 / least

    def test_faults_end_with_their_run(self):
        # --faults installs its plan in this process, where forked pool
        # workers inherit it; a later run in the same process must not,
        # and the plan never travels through the environment.
        from repro.faults.plan import current_plan

        argv = ("study", "--scale", "0.004", "--landmarks", "40")
        with mock.patch.dict(os.environ):
            os.environ.pop("REPRO_FAULTS", None)
            _, faulted = run_cli(*argv, "--faults", '{"seed": 1, "probe_loss": 0.1}')
            leaked = os.environ.get("REPRO_FAULTS")
            _, clean = run_cli(*argv)
        assert "DEGRADATION REPORT" in faulted
        assert "DEGRADATION REPORT" not in clean
        assert leaked is None
        assert current_plan() is None

    def test_coldvideo(self):
        code, text = run_cli("coldvideo", "--nodes", "12", "--samples", "4",
                             "--seed", "5")
        assert code == 0
        assert "ratio>1.2" in text

    def test_coldvideo_ignores_hash_seed(self):
        # The PlanetLab node list once depended on set iteration order.
        src = str(Path(repro.__file__).resolve().parents[1])
        outputs = []
        for hash_seed in ("0", "3"):
            env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
            env.update(PYTHONPATH=src, PYTHONHASHSEED=hash_seed, REPRO_CACHE="off")
            result = subprocess.run(
                [sys.executable, "-m", "repro", "coldvideo", "--scale", "0.004"],
                env=env, capture_output=True, timeout=120,
            )
            assert result.returncode == 0, result.stderr
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]

    def test_sweep(self):
        code, text = run_cli(
            "sweep", "--dataset", "EU1-FTTH",
            "--parameter", "spill_probability",
            "--values", "0.0,0.1",
            "--metrics", "preferred_share",
            "--scale", "0.004",
        )
        assert code == 0
        lines = [l for l in text.splitlines() if l.strip()]
        assert len(lines) == 3  # header + two grid points
        first = float(lines[1].split()[-1])
        second = float(lines[2].split()[-1])
        assert first > second  # spill lowers the preferred share

    def test_sweep_bad_parameter(self, capsys):
        code, text = run_cli(
            "sweep", "--dataset", "EU1-FTTH",
            "--parameter", "warp_factor", "--values", "1",
        )
        assert code == 2
        assert text == ""
        assert "warp_factor" in capsys.readouterr().err

    def test_whatif_named_variants(self):
        code, text = run_cli(
            "whatif", "--dataset", "EU1-FTTH", "--scale", "0.004",
            "--variants", "old-policy",
        )
        assert code == 0
        assert "baseline" in text
        assert "old-policy" in text


class TestGridCommand:
    def test_plan_lists_points_and_warmth(self):
        code, text = run_cli(
            "grid", "plan", "--base", "EU1-FTTH",
            "--axis", "policy=preferred,geographic",
            "--axis", "zipf_alpha=0.8,1.0",
            "--filter", "policy=geographic,zipf_alpha=1.0",
            "--scale", "0.004",
        )
        assert code == 0
        assert "points=3" in text
        assert "policy=geographic,zipf_alpha=1.0" not in text
        assert text.count("cold") == 4  # the header count + three points

    def test_plan_json_and_out_round_trip(self, tmp_path):
        import json

        grid_file = tmp_path / "grid.json"
        code, text = run_cli(
            "grid", "plan", "--base", "EU2",
            "--axis", "policy=preferred,proportional",
            "--out", str(grid_file), "--json",
        )
        assert code == 0
        document = json.loads(text)
        assert document["base"] == "EU2"
        assert [p["label"] for p in document["points"]] == [
            "policy=preferred", "policy=proportional",
        ]
        # The written grid file reloads into the identical plan.
        code, text = run_cli("grid", "plan", "--grid", str(grid_file), "--json")
        assert code == 0
        assert json.loads(text) == document

    def test_run_prints_metric_table(self):
        code, text = run_cli(
            "grid", "run", "--base", "EU1-FTTH",
            "--axis", "spill_probability=0.0,0.1",
            "--metrics", "preferred_share",
            "--scale", "0.004",
        )
        assert code == 0
        lines = [l for l in text.splitlines() if l.strip()]
        assert lines[0].split() == ["point", "preferred_share"]
        assert lines[-1].startswith("grid: 2 points")
        first = float(lines[1].split()[-1])
        second = float(lines[2].split()[-1])
        assert first > second  # spill lowers the preferred share

    def test_diff_reports_added_points(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run_cli("grid", "plan", "--base", "EU1-FTTH",
                "--axis", "policy=preferred", "--out", str(a), "--scale", "0.004")
        run_cli("grid", "plan", "--base", "EU1-FTTH",
                "--axis", "policy=preferred,geographic", "--out", str(b),
                "--scale", "0.004")
        code, text = run_cli("grid", "diff", str(a), str(b))
        assert code == 0
        assert "added policy=geographic" in text
        assert "common 1 points" in text

    def test_unknown_base_exits_2(self, capsys):
        code, text = run_cli("grid", "plan", "--base", "Mars",
                             "--axis", "policy=preferred")
        assert code == 2
        assert "Mars" in capsys.readouterr().err

    def test_bad_axis_clause_exits_2(self, capsys):
        code, _ = run_cli("grid", "plan", "--axis", "policy")
        assert code == 2
        assert "NAME=V1,V2" in capsys.readouterr().err

    def test_grid_file_conflicts_with_inline_shape(self, tmp_path, capsys):
        grid_file = tmp_path / "grid.json"
        grid_file.write_text('{"base": "EU2", "axes": []}')
        code, _ = run_cli("grid", "plan", "--grid", str(grid_file),
                          "--axis", "policy=preferred")
        assert code == 2
        assert "--grid" in capsys.readouterr().err


class TestStudyStreamGating:
    @pytest.mark.parametrize("flags,expected", [
        (["--full"], "repro study --full"),
        (["--validate"], "repro study --validate"),
        (["--full", "--validate"], "repro study --full --validate"),
    ])
    def test_stream_rejects_batch_only_flags(self, flags, expected, capsys):
        code, text = run_cli("study", "--stream", "--scale", "0.004", *flags)
        assert code == 2
        assert text == ""  # the error goes to stderr, not the report stream
        error = capsys.readouterr().err
        for flag in flags:
            assert flag in error
        assert expected in error  # names the exact batch equivalent


#: Bad inputs that must end in exit 2 with one stderr line:
#: (argv, extra environment, text the message must contain).
#: ``--plan`` files the ``BAD_INPUTS`` rows read, by name: one step each.
PLAN_FILES = {
    "old-shape.json": {"spec": {"add": {"pars": {"preferred_override": "dc-frankfurt"}}}},
    "unknown-field.json": {"changes": {"warp_factor": 9}},
    "fixed-field.json": {"changes": {"subnets": [["Net-1", 1.0, False]]}},
}

BAD_INPUTS = [
    (
        ["sweep", "--dataset", "EU1-ADSL", "--parameter", "bogus", "--values", "1,2"],
        {},
        "bogus",
    ),
    (
        ["sweep", "--dataset", "EU1-ADSL", "--parameter", "rebalance_probability",
         "--values", "0.1,lots"],
        {},
        "--values",
    ),
    (["study", "--scale", "-1"], {}, "--scale"),
    (["study", "--scale", "inf"], {}, "repro study: --scale must be a finite number >= 0.000101"),
    # A scale that leaves a week empty fails before anything simulates,
    # not in whichever analysis first meets the empty week.
    (["study", "--scale", "1e-9"], {}, "repro study: --scale must be a finite number >= 0.000101"),
    (["eval", "--scale", "1e-9"], {}, "repro eval: --scale must be a finite number"),
    (["figures", "--out-dir", "figs", "--scale", "1e-9"], {},
     "repro figures: --scale must be a finite number"),
    (["whatif", "--dataset", "EU2", "--scale", "1e-9"], {},
     "repro whatif: --scale must be a finite number"),
    (["simulate", "--dataset", "EU1-ADSL", "--out", "x.tsv", "--duration-days", "inf"], {},
     "repro simulate: --duration-days must be positive and finite"),
    (["monitor", "--epoch-s", "inf"], {}, "epoch_s must be finite, got inf"),
    (["cache", "gc", "--max-size", "inf"], {}, "repro cache: bad --max-size 'inf'"),
    (["simulate", "--dataset", "EU1-ADSL", "--out", "x.tsv", "--scale", "0"], {}, "--scale"),
    (["study", "--landmarks", "3"], {}, "--landmarks"),
    (["eval", "--landmarks", "3"], {}, "--landmarks"),
    (["study", "--stream", "--window-s", "0"], {}, "--window-s"),
    (["sessions", "--flows", "missing.tsv", "--stream", "--window-s", "0"], {}, "--window-s"),
    (["sessions", "--flows", "missing.tsv", "--stream", "--lag-s", "-1"], {}, "--lag-s"),
    (["sessions", "--flows", "missing.tsv"], {}, "missing.tsv"),
    (["sessions", "--flows", "missing.tsv", "--stream"], {}, "missing.tsv"),
    (["sessions", "--flows", "malformed.tsv"], {}, "expected 7 fields"),
    (["sessions", "--flows", "malformed.tsv", "--stream"], {}, "expected 7 fields"),
    # A flow further out of order than --lag-s fails; it is not dropped.
    (["sessions", "--flows", "disordered.tsv", "--stream"], {},
     "cannot read flow log disordered.tsv: flow with t_start 10.0 is 4990 s behind "
     "the newest flow, more than --lag-s 0; --lag-s 4990 would window it"),
    # --gaps is checked before the (malformed) log is read.
    (["sessions", "--flows", "malformed.tsv", "--gaps", "0"], {}, "--gaps"),
    (["sessions", "--flows", "malformed.tsv", "--gaps", "abc"], {}, "--gaps"),
    (["sessions", "--flows", "malformed.tsv", "--gaps", "-1", "--stream"], {}, "--gaps"),
    (["anonymize", "--flows", "missing.tsv", "--key", "k", "--out", "o.tsv"], {}, "missing.tsv"),
    (["anonymize", "--flows", "malformed.tsv", "--key", "k", "--out", "o.tsv"], {},
     "expected 7 fields"),
    # Checked before anything is simulated.
    (["whatif", "--dataset", "EU1-ADSL", "--variants", "bogus"], {},
     "unknown variant 'bogus'"),
    # A what-if comparison is a one-axis grid, so a repeated name is a
    # duplicate axis value.
    (["whatif", "--dataset", "EU1-ADSL", "--variants", "old-policy,old-policy"], {},
     "repro whatif: axis 'variant' has duplicate values"),
    (["figures", "--out-dir", "malformed.tsv/figs"], {}, "--out-dir"),
    # Above the --scale floor, but Figure 9 needs an hour with five video
    # flows at every vantage point; no figure file is written.
    (["figures", "--out-dir", "figs", "--scale", "1.02e-4", "--landmarks", "10", "--seed", "1"],
     {}, "repro figures: --scale 0.000102 is too small for Figure 9"),
    (["grid", "plan", "--axis", "server_capacity_multiple=3",
      "--out", "malformed.tsv/g.json"], {}, "malformed.tsv/g.json"),
    (["monitor", "--epochs", "0"], {}, "epochs must be >= 1"),
    (["monitor", "--threshold", "nan"], {}, "threshold must be positive, got nan"),
    (["monitor", "--epoch-s", "nan"], {}, "epoch_s must be positive, got nan"),
    (["trace", "summary", "missing.jsonl"], {}, "missing.jsonl"),
    # Checked before the trace is read.
    (["trace", "slowest", "missing.jsonl", "--top", "0"], {}, "--top must be at least 1"),
    (["trace", "slowest", "missing.jsonl", "--top", "-1"], {}, "--top must be at least 1"),
    (["trace", "diff", "missing.jsonl", "missing.jsonl", "--top", "0"], {},
     "--top must be at least 1"),
    (["trace", "summary", "missing.jsonl", "--depth", "0"], {}, "--depth must be at least 1"),
    (["trace", "summary", "missing.jsonl", "--depth", "-1", "--json"], {},
     "--depth must be at least 1"),
    # Checked before the world is built.
    (["coldvideo", "--nodes", "0"], {}, "--nodes"),
    (["coldvideo", "--nodes", "-3"], {}, "--nodes"),
    (["coldvideo", "--samples", "1"], {}, "--samples"),
    # Checked before anything is simulated.
    (["simulate", "--dataset", "EU1-ADSL", "--out", "x.tsv", "--duration-days", "0"], {},
     "--duration-days"),
    (["simulate", "--dataset", "EU1-ADSL", "--out", "x.tsv", "--duration-days", "-1"], {},
     "--duration-days"),
    (["cache", "gc", "--max-size", "lots"], {}, "repro cache: bad --max-size"),
    # Checked before anything is simulated.
    (["simulate", "--dataset", "EU1-ADSL", "--out", "missing-dir/x.tsv"], {},
     "repro simulate: cannot write flow log missing-dir/x.tsv"),
    # Out-of-range scenario values are rejected when each point is composed.
    (["sweep", "--dataset", "EU2", "--parameter", "rebalance_probability",
      "--values", "0.1,2.0"], {}, "rebalance_probability must be in [0, 1), got 2.0"),
    (["grid", "run", "--base", "EU2", "--axis", "rebalance_probability=2.0"], {},
     "rebalance_probability must be in [0, 1), got 2.0"),
    (["grid", "plan", "--base", "EU2", "--axis", "rebalance_probability=2.0"], {},
     "rebalance_probability must be in [0, 1), got 2.0"),
    # --values and --metrics are checked before any point is simulated.
    (["sweep", "--dataset", "EU2", "--parameter", "spill_probability", "--values", ","], {},
     "repro sweep: --values names no values"),
    (["sweep", "--dataset", "EU2", "--parameter", "spill_probability", "--values", "0.1",
      "--metrics", "bogus"], {}, "repro sweep: unknown --metrics bogus"),
    (["grid", "run", "--base", "EU2", "--axis", "rebalance_probability=0.1",
      "--metrics", "preferred_share,bogus"], {}, "repro grid: unknown --metrics bogus"),
    # --policy is checked against the registry before anything is simulated.
    (["study", "--policy", "bogus"], {}, "repro study: unknown policy 'bogus'"),
    (["simulate", "--dataset", "EU1-ADSL", "--out", "x.tsv", "--policy", "bogus"], {},
     "repro simulate: unknown policy 'bogus'"),
    (["monitor", "--policy", "bogus"], {}, "repro monitor: unknown policy 'bogus'"),
    (["eval", "--policy", "bogus"], {}, "repro eval: unknown policy 'bogus'"),
    (["monitor", "--plan", "missing.json"], {}, "repro monitor: bad --plan"),
    # Plan files (written by the test below): the old set-algebra step
    # shape, an unknown field, and a field a delta cannot assign.
    (["monitor", "--plan", "old-shape.json"], {},
     "repro monitor: bad --plan: unknown EvolutionStep keys: ['spec']"),
    (["monitor", "--plan", "unknown-field.json"], {},
     "repro monitor: bad --plan: unknown par 'warp_factor'"),
    (["monitor", "--plan", "fixed-field.json"], {},
     "repro monitor: bad --plan: field 'subnets' is not assignable"),
    (["grid", "diff", "missing.json", "missing.json"], {}, "repro grid: cannot diff grids"),
    (["grid", "run", "--axis", "nonsense"], {}, "repro grid: bad grid"),
    (["study", "--faults", "{"], {}, "repro study: bad --faults plan"),
    # --stream takes --policy, so the registry check still guards it.
    (["study", "--stream", "--policy", "bogus"], {}, "repro study: unknown policy 'bogus'"),
    (["study", "--stream", "--full"], {}, "repro study: --stream renders the summary report only"),
]


@pytest.mark.parametrize(
    "argv, env, needle", BAD_INPUTS, ids=[" ".join(case[0]) for case in BAD_INPUTS]
)
def test_bad_input_exits_2_with_one_line(argv, env, needle, tmp_path):
    # A real process, so an uncaught exception would show as a traceback.
    # It runs in an empty directory holding only a malformed flow log,
    # a disordered one and the plan files.
    (tmp_path / "malformed.tsv").write_text("not a flow record\n")
    (tmp_path / "disordered.tsv").write_text(
        "1.0.0.1\t2.0.0.1\t5000\t5000.0\t5001.0\tvidA\t360p\n"
        "1.0.0.1\t2.0.0.1\t5000\t10.0\t11.0\tvidA\t360p\n"
    )
    for plan_name, changes in PLAN_FILES.items():
        (tmp_path / plan_name).write_text(json.dumps({"steps": [{"epoch": 2, **changes}]}))
    src = str(Path(repro.__file__).resolve().parents[1])
    child_env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    child_env.update(env, PYTHONPATH=src, REPRO_CACHE="off")
    result = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=child_env, capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1, result.stderr
    assert needle in lines[0]
    assert result.stdout == ""
