"""What each command loads: the import closure of real ``repro`` processes.

Every module a process imports is compiled from source when no bytecode
is cached, so a command that loads code it never runs pays for it at
every start.  These tests run the real entry point under
``python -X importtime``, which lists every module the process imported,
and hold each command to the packages it needs.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path
from typing import List, Set

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

#: The world model and the numeric stack: what program start avoids.
WORLD_MODEL = (
    "numpy",
    "repro.sim",
    "repro.cdn",
    "repro.geo",
    "repro.net",
    "repro.workload",
    "repro.core",
)

#: Code a batch summary study never runs.
NOT_IN_A_STUDY = (
    "repro.whatif",
    "repro.monitor",
    "repro.active",
    "repro.spec",
    "repro.stream",
    "repro.core.hotspots",
    "repro.core.loadbalance",
)

#: The simulator: what a study whose weeks are all cached never loads.
SIMULATOR = (
    "repro.cdn.policies",
    "repro.cdn.redirection",
    "repro.cdn.selection",
    "repro.workload",
    "repro.sim.engine",
    "repro.sim.scenarios",
)

#: The flow-log event layer that once windowed ``repro sessions --stream``:
#: both producers of windows now share one seal, so nothing may load it.
EVENT_LAYER = ("repro.stream.events", "repro.stream.source", "repro.stream.windows")

_IMPORT_LINE = re.compile(r"^import time:\s+\d+ \|\s+\d+ \|\s+(\S+)\s*$")


def loaded_modules(argv: List[str], tmp_path: Path, cache: str = "off") -> Set[str]:
    """Every module ``python -m repro <argv>`` imports, in a fresh process.

    The process runs with ``REPRO_CACHE=<cache>`` over ``tmp_path/cache``.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=SRC, REPRO_CACHE=cache, REPRO_CACHE_DIR=str(tmp_path / "cache"))
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro", *argv],
        env=env, capture_output=True, text=True, timeout=300, cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    modules = {
        match.group(1)
        for match in map(_IMPORT_LINE.match, result.stderr.splitlines())
        if match
    }
    assert "repro.cli" in modules, "no -X importtime lines were parsed"
    return modules


def offending(modules: Set[str], packages) -> List[str]:
    return sorted(
        name for name in modules
        if any(name == pkg or name.startswith(pkg + ".") for pkg in packages)
    )


@pytest.mark.parametrize("argv", [["cache", "stats"], ["--help"]], ids=" ".join)
def test_start_up_commands_skip_the_world_model(argv, tmp_path):
    modules = loaded_modules(argv, tmp_path)
    assert offending(modules, WORLD_MODEL) == []
    # The artifact store loads hashlib only to check or write an object.
    assert "hashlib" not in modules


def test_batch_study_loads_only_what_it_runs(tmp_path):
    modules = loaded_modules(
        ["study", "--scale", "0.004", "--landmarks", "40", "--seed", "7"], tmp_path
    )
    assert {"numpy", "repro.core.pipeline", "repro.sim.driver"} <= modules
    assert offending(modules, NOT_IN_A_STUDY) == []


def test_warm_study_loads_no_simulator(tmp_path):
    study = ["study", "--scale", "0.004", "--seed", "7", "--digests"]
    filled = loaded_modules([*study, "--landmarks", "10"], tmp_path, cache="on")
    assert "repro.sim.engine" in filled  # the fill simulated its weeks
    # A new landmark budget misses the report: the weeks are read back
    # from the cache, and CBG and the analysis run again.
    modules = loaded_modules([*study, "--landmarks", "40"], tmp_path, cache="on")
    assert offending(modules, SIMULATOR) == []
    assert {"repro.core.pipeline", "repro.geoloc.cbg", "repro.sim.week"} <= modules


def test_streamed_study_makes_no_events(tmp_path):
    """A streamed study folds the windows its monitor seals: no event source,
    event type or event windower is loaded."""
    modules = loaded_modules(
        ["study", "--stream", "--scale", "0.004", "--landmarks", "40"], tmp_path
    )
    assert "repro.stream.study" in modules
    assert offending(modules, EVENT_LAYER) == []


def test_sessions_stream_loads_no_simulator(tmp_path):
    """``repro sessions --stream`` windows a log with the seal a simulated
    week uses, and loads neither the simulator nor an event layer."""
    from repro.trace.logio import write_flow_log
    from repro.trace.records import FlowRecord

    write_flow_log(
        [FlowRecord(1, 100, 5000, float(t), t + 0.5, "vidA", "360p") for t in range(5)],
        tmp_path / "flows.tsv",
    )
    modules = loaded_modules(
        ["sessions", "--flows", "flows.tsv", "--stream", "--window-s", "2"], tmp_path
    )
    assert "repro.trace.logio" in modules
    assert offending(modules, ("repro.cdn", "repro.sim") + EVENT_LAYER) == []
