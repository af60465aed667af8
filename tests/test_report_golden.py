"""The study's answer is pinned, not only its input.

``tests/golden/report_0.01.txt`` is the stdout of ``repro study --scale
0.01 --seed 7 --full --validate --digests``: Tables I–III, every figure's
series, the preferred data centers and the validation report.
``tests/golden/figures_0.01.sha256`` holds the sha256 of each file
``repro figures`` writes at the same scale and seed, in ``sha256sum``
form.  A change that moves one table cell or one figure point fails
here; ``scripts/update_golden.sh`` rewrites both after an intended one.
"""

from __future__ import annotations

import hashlib
import io
from pathlib import Path

from repro.cli import main

GOLDEN = Path(__file__).parent / "golden"
WORLD = ["--scale", "0.01", "--seed", "7"]


def test_report_and_figures_match_golden(tmp_path):
    out = io.StringIO()
    assert main(["study", *WORLD, "--full", "--validate", "--digests"], out=out) == 0
    assert out.getvalue() == (GOLDEN / "report_0.01.txt").read_text(encoding="utf-8")

    assert main(["figures", *WORLD, "--out-dir", str(tmp_path)], out=io.StringIO()) == 0
    written = [
        f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}"
        for path in sorted(tmp_path.iterdir())
    ]
    assert written == (GOLDEN / "figures_0.01.sha256").read_text(encoding="ascii").splitlines()
