"""The full equivalence contract, and the study under a lossy fault plan.

Tier-1 runs a diagonal of ``tests/test_contract.py``'s cells; this runs
every cell of the product (3 modes x 2 execution paths x 2 caches x
3 plans x 2 trace settings), each of which must print ``tests/golden/study_0.01.txt``.

The lossy cell runs a plan that loses probes, crashes and retries tasks,
corrupts every cache read and garbles log lines.  Lost probes move the
geolocation, so its tables may differ from the golden; the simulated
traces may not.  Its digests must equal the golden's, two warm runs must
print identical bytes, and its degradation report must show lost probes,
retried tasks and quarantined reads.

    PYTHONPATH=src python -m pytest -q benchmarks/test_contract_matrix.py
"""

from __future__ import annotations

import itertools
from typing import List

import pytest

from tests.execpaths import PATHS
from tests.test_contract import (
    CACHES,
    GOLDEN,
    MODES,
    PLANS,
    STUDY,
    TRACES,
    degradation_totals,
    plan_args,
    run_cell,
    run_study,
)

CELLS = list(itertools.product(MODES, PATHS, CACHES, PLANS, TRACES))

LOSSY_PLAN = {
    "seed": 42,
    "probe_loss": 0.1,
    "probe_timeout": 0.1,
    "task_transient": 0.1,
    "task_crash": 0.05,
    "artifact_corrupt": 1.0,
    "line_garble": 0.02,
}


def digest_lines(stdout: str) -> List[str]:
    return [line for line in stdout.splitlines() if line.startswith("digest ")]


@pytest.mark.parametrize("cell", CELLS, ids=["-".join(cell) for cell in CELLS])
def test_contract_cell(cell, tmp_path):
    run_cell(*cell, tmp_path)


def test_lossy_plan_keeps_the_traces(tmp_path):
    env = {"REPRO_CACHE_DIR": str(tmp_path / "cache")}
    argv = STUDY + plan_args(LOSSY_PLAN)
    cold = run_study(argv, env)
    # Every warm read comes back corrupt, is quarantined and recomputed.
    warm, again = run_study(argv, env), run_study(argv, env)

    assert digest_lines(cold) == digest_lines(GOLDEN.read_text(encoding="utf-8"))
    assert warm == again
    cold_totals = degradation_totals(cold)
    assert cold_totals["probes_lost"] >= 1
    assert cold_totals["retried"] >= 1
    assert degradation_totals(warm)["quarantined"] >= 1
