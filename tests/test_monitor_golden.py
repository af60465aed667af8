"""Golden-digest regression test for the monitor timeline.

``tests/golden/monitor_0.01.digests`` pins the per-epoch snapshot
digests of ``repro monitor`` over the built-in demo evolution at
``--scale 0.01 --seed 7`` (8 one-day epochs).  Any change to the
simulator, the spec-application path, the streaming accumulator, or the
probe campaign shows up here as a digest drift; refresh the fixture
deliberately with ``scripts/update_golden.sh`` and call the change out
in review.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.monitor.evolution import standard_evolution
from repro.monitor.run import run_monitor

GOLDEN = Path(__file__).parent / "golden" / "monitor_0.01.digests"

SCALE = 0.01
SEED = 7
EPOCHS = 8


def golden_lines():
    return [
        line.strip()
        for line in GOLDEN.read_text(encoding="ascii").splitlines()
        if line.strip()
    ]


@pytest.fixture(scope="module")
def report():
    return run_monitor("EU1-ADSL", plan=standard_evolution(), epochs=EPOCHS,
                       scale=SCALE, seed=SEED)


def test_fixture_is_well_formed():
    lines = golden_lines()
    assert len(lines) == EPOCHS
    for index, line in enumerate(lines):
        parts = line.split()
        assert len(parts) == 3 and parts[0] == "digest", line
        assert parts[1] == f"epoch{index:02d}", line
        assert len(parts[2]) == 64 and int(parts[2], 16) >= 0, line


def test_digests_match_golden(report):
    expected = {line.split()[1]: line.split()[2] for line in golden_lines()}
    current = {
        f"epoch{row.epoch:02d}": row.digest for row in report.rows
    }
    assert set(current) == set(expected)
    drifted = {
        name: (expected[name], digest)
        for name, digest in current.items()
        if digest != expected[name]
    }
    assert not drifted, (
        "epoch digests drifted from tests/golden/monitor_0.01.digests "
        f"(run scripts/update_golden.sh if intentional): {drifted}"
    )


def test_detection_quality_pinned(report):
    # The acceptance bar the golden world must keep clearing.
    assert report.score.precision >= 0.9
    assert report.score.recall >= 0.9
    assert report.alarm_epochs() == list(report.truth) == [2, 4, 6]
