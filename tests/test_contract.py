"""The equivalence contract: one answer however the study is run.

``repro study --scale 0.01 --seed 7 --digests`` prints Tables I–III, each
vantage point's preferred data center and non-preferred share, and one
content digest per dataset.  Those bytes, pinned in
``tests/golden/study_0.01.txt``, must not depend on how the run is
executed.  A *cell* picks one value on each axis:

- mode: batch, or ``--stream`` at a one-hour or a 15-minute window;
- path: every batch in-process, or every batch in a process pool
  (forced through the executor's decision, so both run on any host);
- cache: cold, or warm (weeks and RTT campaigns already stored);
- plan: no fault plan, an inert one, or a recoverable one;
- trace: ``--trace DIR``, or the same with ``REPRO_TRACE=off``.

Every cell prints the golden up to any ``DEGRADATION REPORT``.  A
recoverable plan must print that report, a trace-on cell writes one
trace whose cache counters equal the store's ledger (and whose
degradation counters equal the report's ``TOTAL`` row), and a trace-off
cell writes none.  Tier-1 runs :data:`DIAGONAL`, which takes every axis
value at least once; ``benchmarks/test_contract_matrix.py`` runs the
full product.  ``scripts/update_golden.sh`` rewrites the golden.
:class:`TestStoredWeeks` holds the golden through a damaged store and
through the digests' own artifact, and :func:`test_retried_study_never_waits`
pins the degradation report of a plan whose faults are all retried.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import tempfile
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional
from unittest import mock

import pytest

from repro.artifacts.keys import stage_key
from repro.artifacts.store import ArtifactStore
from repro.cli import main
from repro.obs.export import read_trace
from repro.sim import driver
from repro.sim.scenarios import PAPER_SCENARIOS
from repro.trace.records import WEEK_S, Dataset, FlowRecord
from tests.execpaths import forced

GOLDEN = Path(__file__).parent / "golden" / "study_0.01.txt"
DEGRADATION_GOLDEN = Path(__file__).parent / "golden" / "degradation_0.01.txt"
STUDY = ["study", "--scale", "0.01", "--seed", "7", "--digests"]

MODES = {
    "batch": [],
    "stream-3600": ["--stream", "--window-s", "3600"],
    "stream-900": ["--stream", "--window-s", "900"],
}
CACHES = ("cold", "warm")
#: Fault plans.  ``recoverable`` injects only faults the run absorbs
#: without changing a byte: retried task attempts and corrupt cache reads
#: (quarantined and recomputed).  Every task attempt fails until the
#: plan's ``max_failures_per_task`` (2) is spent, which is below
#: ``MAX_ATTEMPTS`` (4), so every task succeeds on its third attempt; and
#: every cache read comes back corrupt.  So every cell retries, and every
#: warm one quarantines, at any plan seed.
PLANS = {
    "none": None,
    "inert": {"seed": 99},
    "recoverable": {
        "seed": 7,
        "task_transient": 1.0,
        "artifact_corrupt": 1.0,
    },
}
TRACES = ("on", "off")

#: (mode, path, cache, plan, trace): every axis value at least once.
#: The two warm batch cells read every week from the store, once per
#: path; the cold trace-off cell recomputes every week.
DIAGONAL = [
    ("batch", "in-process", "cold", "none", "off"),
    ("batch", "pooled", "warm", "inert", "on"),
    ("stream-3600", "pooled", "cold", "recoverable", "on"),
    ("stream-900", "in-process", "warm", "recoverable", "off"),
    ("batch", "in-process", "warm", "none", "on"),
]

DEGRADATION = "\nDEGRADATION REPORT\n"


def run_study(argv: List[str], env: Dict[str, str]) -> str:
    """One in-process ``repro`` run under exactly ``env``'s ``REPRO_*``.

    Clears the in-process week memo first, so only the artifact store
    can carry work from one run to the next.  Returns the stdout.
    """
    driver.clear_cache()
    clean = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    out = io.StringIO()
    with mock.patch.dict(os.environ, {**clean, **env}, clear=True):
        assert main(argv, out=out) == 0
    return out.getvalue()


def plan_args(plan: Optional[dict]) -> List[str]:
    return [] if plan is None else ["--faults", json.dumps(plan)]


def ledger(cache_dir: Path, skip: int = 0) -> List[dict]:
    """The store's ``events.jsonl`` entries, after the first ``skip``."""
    path = cache_dir / "events.jsonl"
    if not path.is_file():
        return []
    return [json.loads(line) for line in path.read_text().splitlines()[skip:]]


def counter_total(metrics: dict, name: str) -> int:
    """One counter summed over every label set of a metrics snapshot."""
    return int(sum(
        value for flat, value in metrics.get("counters", {}).items()
        if flat == name or flat.startswith(name + "{")
    ))


def degradation_totals(stdout: str) -> Dict[str, int]:
    """The ``TOTAL`` row of the degradation table, by counter."""
    _, _, table = stdout.partition(DEGRADATION)
    rows = [line.split() for line in table.splitlines()]
    header = next(row for row in rows if row and row[0] == "stage")
    total = next(row for row in rows if row and row[0] == "TOTAL")
    return dict(zip(header[1:], map(int, total[1:])))


_PRIMED = tempfile.TemporaryDirectory(prefix="repro-contract-")


@lru_cache(maxsize=None)
def primed_cache(plan: str) -> Path:
    """A store filled by a ten-landmark study under ``plan``; warm cells copy it.

    It holds the weeks and RTT campaigns, but not the 120-landmark
    report, so a warm cell misses ``cli/study`` and reads the rest.
    """
    cache_dir = Path(_PRIMED.name) / plan
    run_study(STUDY + ["--landmarks", "10"] + plan_args(PLANS[plan]),
              {"REPRO_CACHE_DIR": str(cache_dir)})
    return cache_dir


def run_cell(mode: str, path: str, cache: str, plan: str, trace: str,
             tmp_path: Path) -> None:
    """Run one contract cell and check what every cell holds."""
    cache_dir = tmp_path / "cache"
    trace_dir = tmp_path / "traces"
    env = {"REPRO_CACHE_DIR": str(cache_dir)}
    if trace == "off":
        env["REPRO_TRACE"] = "off"
    faults = plan_args(PLANS[plan])
    if cache == "warm":
        # An inert plan keys what no plan keys, so both read one store.
        shutil.copytree(primed_cache("recoverable" if plan == "recoverable" else "none"),
                        cache_dir)
    mark = len(ledger(cache_dir))
    with forced(path):
        stdout = run_study(STUDY + MODES[mode] + faults + ["--trace", str(trace_dir)], env)
    events = ledger(cache_dir, skip=mark)

    head, degraded, _ = stdout.partition(DEGRADATION)
    assert head == GOLDEN.read_text(encoding="utf-8")
    assert bool(degraded) == (plan == "recoverable")
    if degraded:
        # The plan did inject: tasks were retried, and a warm run's
        # corrupt reads were quarantined.
        totals = degradation_totals(stdout)
        assert totals["retried"] >= 1
        assert cache == "cold" or totals["quarantined"] >= 1

    traces = sorted(trace_dir.glob("trace_*.jsonl"))
    if trace == "off":
        assert traces == []
    else:
        assert len(traces) == 1
        doc = read_trace(traces[0])
        assert [root.name for root in doc.roots()] == ["cli/study"]
        for event in ("hit", "miss", "put"):
            in_ledger = sum(1 for entry in events if entry["event"] == event)
            assert counter_total(doc.metrics, f"cache.{event}") == in_ledger, event
        if degraded:
            totals = degradation_totals(stdout)
            assert {
                name: counter_total(doc.metrics, f"degradation.{name}") for name in totals
            } == totals

    if cache == "warm" and plan != "recoverable":
        # The ten-landmark study stored the digests: no week is hashed.
        digests = [entry["event"] for entry in events if entry["stage"] == "cli/digests"]
        assert digests == ["hit"]
    if cache == "warm" and mode == "batch" and plan != "recoverable":
        weeks = [entry["event"] for entry in events if entry["stage"] == "sim/run_week"]
        assert weeks == ["hit"] * 5


@pytest.mark.parametrize("cell", DIAGONAL, ids=["-".join(cell) for cell in DIAGONAL])
def test_contract_cell(cell, tmp_path):
    run_cell(*cell, tmp_path)


#: The ``cli/digests`` key of :data:`STUDY`: the weeks' inputs only.
DIGESTS_KEY = stage_key("cli/digests", {"scale": 0.01, "seed": 7, "policy": "preferred"})


def flip_middle_byte(path: Path) -> None:
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0x01
    path.write_bytes(bytes(blob))


class TestStoredWeeks:
    """Warm studies over a damaged store and the ``cli/digests`` artifact."""

    def test_flipped_byte_in_a_week_is_quarantined_and_recomputed(self, tmp_path):
        cache_dir = tmp_path / "cache"
        shutil.copytree(primed_cache("none"), cache_dir)
        store = ArtifactStore(cache_dir)
        week_key = driver.simulate_week.cache_key(
            PAPER_SCENARIOS["US-Campus"], 0.01, 7, WEEK_S, "preferred"
        )
        # Damage the digests too, so they are recomputed from the weeks.
        for key in (week_key, DIGESTS_KEY):
            flip_middle_byte(store.object_path(key))
        mark = len(ledger(cache_dir))
        stdout = run_study(STUDY, {"REPRO_CACHE_DIR": str(cache_dir)})
        assert stdout == GOLDEN.read_text(encoding="utf-8")
        events = [(e["stage"], e["event"]) for e in ledger(cache_dir, skip=mark)]
        weeks = [event for stage, event in events if stage == "sim/run_week"]
        assert sorted(weeks) == ["hit"] * 4 + ["miss", "put", "quarantine"]
        digests = [event for stage, event in events if stage == "cli/digests"]
        assert digests == ["quarantine", "miss", "put"]
        assert len(list(store.quarantine_dir.iterdir())) == 2

    def test_cached_report_without_digests_reads_the_weeks(self, tmp_path):
        cache_dir = tmp_path / "cache"
        shutil.copytree(primed_cache("none"), cache_dir)
        ArtifactStore(cache_dir).object_path(DIGESTS_KEY).unlink()
        mark = len(ledger(cache_dir))
        stdout = run_study(STUDY + ["--landmarks", "10"], {"REPRO_CACHE_DIR": str(cache_dir)})
        digest_lines = [line for line in stdout.splitlines() if line.startswith("digest ")]
        golden = GOLDEN.read_text(encoding="utf-8").splitlines()
        assert digest_lines == [line for line in golden if line.startswith("digest ")]
        events = [(e["stage"], e["event"]) for e in ledger(cache_dir, skip=mark)]
        assert ("cli/study", "hit") in events
        assert [event for stage, event in events if stage == "sim/run_week"] == ["hit"] * 5
        assert [event for stage, event in events if stage == "cli/digests"] == ["miss", "put"]

    def test_streamed_digests_after_a_cached_report_stream_again(self, tmp_path):
        # The low-memory mode never materialises a batch week, not even
        # to print digests its cached report did not store.
        cache_dir = tmp_path / "cache"
        shutil.copytree(primed_cache("none"), cache_dir)
        ArtifactStore(cache_dir).object_path(DIGESTS_KEY).unlink()
        mark = len(ledger(cache_dir))
        batch_weeks = mock.patch.object(
            driver, "run_all", side_effect=AssertionError("a batch week was materialised")
        )
        with batch_weeks:
            stdout = run_study(STUDY + ["--landmarks", "10"] + MODES["stream-3600"],
                               {"REPRO_CACHE_DIR": str(cache_dir)})
        digest_lines = [line for line in stdout.splitlines() if line.startswith("digest ")]
        golden = GOLDEN.read_text(encoding="utf-8").splitlines()
        assert digest_lines == [line for line in golden if line.startswith("digest ")]
        events = [(e["stage"], e["event"]) for e in ledger(cache_dir, skip=mark)]
        assert ("cli/study", "hit") in events
        assert [event for stage, event in events if stage == "sim/run_week"] == []
        assert [event for stage, event in events if stage == "cli/digests"] == ["miss", "put"]

    def test_study_without_digests_hashes_no_week(self, tmp_path):
        cache_dir = tmp_path / "cache"
        shutil.copytree(primed_cache("none"), cache_dir)
        mark = len(ledger(cache_dir))
        with mock.patch.object(Dataset, "content_digest", side_effect=AssertionError):
            stdout = run_study(STUDY[:-1], {"REPRO_CACHE_DIR": str(cache_dir)})
        assert stdout == GOLDEN.read_text(encoding="utf-8").split("digest ", 1)[0]
        stages = {entry["stage"] for entry in ledger(cache_dir, skip=mark)}
        assert "cli/digests" not in stages

    def test_streamed_study_without_digests_hashes_no_window(self, tmp_path):
        cache_dir = tmp_path / "cache"
        shutil.copytree(primed_cache("none"), cache_dir)
        with mock.patch("repro.stream.study.update_digest", side_effect=AssertionError):
            stdout = run_study(STUDY[:-1] + MODES["stream-3600"],
                               {"REPRO_CACHE_DIR": str(cache_dir)})
        assert stdout == GOLDEN.read_text(encoding="utf-8").split("digest ", 1)[0]


@pytest.mark.parametrize("mode", ["batch", "stream-3600"])
def test_summary_study_builds_no_flow_record(mode, tmp_path):
    """A summary study reads columns only, cold and warm, batch or streamed.

    The warm run asks for another landmark budget and finds no stored
    digests, so it re-analyses and re-hashes the weeks: a batch study
    reads them back, a streamed one serves them again.
    """
    env = {"REPRO_CACHE_DIR": str(tmp_path / "cache")}
    golden = GOLDEN.read_text(encoding="utf-8")
    study = STUDY + MODES[mode]
    with mock.patch.object(
        FlowRecord, "__post_init__", side_effect=AssertionError("a FlowRecord was built")
    ):
        assert run_study(study, env) == golden
        ArtifactStore(tmp_path / "cache").object_path(DIGESTS_KEY).unlink()
        warm = run_study(study + ["--landmarks", "10"], env)
    assert warm.splitlines()[-5:] == golden.splitlines()[-5:]
    events = [(e["stage"], e["event"]) for e in ledger(tmp_path / "cache")]
    assert events.count(("sim/run_week", "hit")) == (5 if mode == "batch" else 0)


def test_full_study_eval_simulate_and_monitor_build_no_flow_record(tmp_path):
    """Every analysis, the attribution join, the log writer and the
    monitor's fold read columns: only a flow-log reader builds records."""
    env = {"REPRO_CACHE_DIR": str(tmp_path / "cache")}
    report = (GOLDEN.parent / "report_0.01.txt").read_text(encoding="utf-8")
    small = ["--scale", "0.004", "--seed", "5"]
    with mock.patch.object(
        FlowRecord, "__post_init__", side_effect=AssertionError("a FlowRecord was built")
    ):
        assert run_study(STUDY + ["--full", "--validate"], env) == report
        assert "ATTRIBUTION SCORECARD" in run_study(["eval", *small, "--landmarks", "40"], env)
        log = tmp_path / "flows.tsv"
        assert run_study(["simulate", "--dataset", "EU1-FTTH", *small, "--out", str(log)], env)
        assert run_study(["monitor", *small, "--epochs", "2"], env)
    assert log.read_text(encoding="ascii").count("\n") > 1


#: Retried task attempts and retried RTT timeouts, none of them exhausted.
RETRIED_PLAN = {"seed": 4, "task_transient": 0.3, "probe_timeout": 0.2}


def test_retried_study_never_waits(tmp_path):
    """A retry is made at once: the plan, not the clock, decides each fault."""
    with mock.patch("time.sleep", side_effect=AssertionError("a retry waited")):
        stdout = run_study(
            STUDY + plan_args(RETRIED_PLAN), {"REPRO_CACHE_DIR": str(tmp_path / "cache")}
        )
    head, degraded, report = stdout.partition(DEGRADATION)
    assert head == GOLDEN.read_text(encoding="utf-8")
    assert degraded
    assert degraded.lstrip("\n") + report == DEGRADATION_GOLDEN.read_text(encoding="utf-8")
