"""Golden tables of the scenario front ends: ``whatif``, ``sweep``, ``grid run``.

Each fixture under ``tests/golden/`` is the exact stdout of one command
at seed 7 with the artifact cache off.  A change to how a variant, a
sweep point or a grid point becomes a world, or to how its metric row
is rendered, shows up here as a byte difference.  Refresh the fixtures
deliberately with ``scripts/update_golden.sh`` and call the change out
in review.
"""

from __future__ import annotations

import io
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).parent / "golden"

#: Fixture name → the ``repro`` arguments whose stdout it holds.
TABLES = {
    "whatif_EU1-ADSL_0.01.txt": [
        "whatif", "--dataset", "EU1-ADSL", "--scale", "0.01", "--seed", "7",
    ],
    "sweep_EU2_0.006.txt": [
        "sweep", "--dataset", "EU2", "--parameter", "internal_dc_cap_of_mean",
        "--values", "0.2,0.55,1.2", "--scale", "0.006", "--seed", "7",
    ],
    "grid_EU1-FTTH_0.004.txt": [
        "grid", "run", "--base", "EU1-FTTH",
        "--axis", "policy=preferred,geographic",
        "--axis", "variant=baseline,flash-crowd", "--scale", "0.004", "--seed", "7",
    ],
}


@pytest.mark.parametrize("fixture", sorted(TABLES))
def test_front_end_table_matches_golden(fixture):
    out = io.StringIO()
    assert main(TABLES[fixture], out=out) == 0
    assert out.getvalue() == (GOLDEN / fixture).read_text(encoding="utf-8")
