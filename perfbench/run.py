#!/usr/bin/env python3
"""Benchmark of ``repro study``: cold study and warm re-analysis.

Run it from the root of a checkout::

    python3 perfbench/run.py --workload cold --seed 1 --seconds 20 --trace 0

Every workload derives :data:`WORLDS` world seeds from ``--seed`` and runs
the paper's five-vantage-point study at scale :data:`SCALE` over them,
round-robin, until ``--seconds`` have passed and each world ran once.
The workloads and why each exists are listed in ``perfbench/README.md``.

``--trace 0`` measures what a user sees: every study is a fresh
``python -m repro study`` process, timed from spawn to exit, with its
peak resident memory read from the kernel when it is reaped.  A fixed
reference kernel (:func:`reference_s`) is timed between program runs,
and each run's time is also reported as a multiple of the kernel's time
around it: on a shared host the machine's speed drifts by a third within
minutes, and the ratio cancels that drift.  Set-up (loading the program,
and for ``warm`` filling the cache) is timed separately.  ``--trace 1``
runs the same studies inside this process, composed from the library's
layer entry points with one of the benchmark's own spans around each
call (:mod:`layers`), and reports per-layer self times and counters
instead.

Every study's report is checked: five datasets with traffic, a preferred
data center carrying a large share at each vantage point, identical bytes
whenever a world is studied again, cached weeks that reproduce the weeks
that were simulated, and a traced study equal to the program's own.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Nothing is
written outside ``.perfbench/`` in the checkout, and that run directory
is removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

#: Traffic scale of every study (1.0 is the paper's volume).
SCALE = 0.01
#: Distinct worlds per run; repeats of a world must print identical bytes.
#: ``warm`` fills the cache with each of them during set-up.
WORLDS = 3
#: CBG landmark budget of every measured study (the CLI default).
LANDMARKS = 120
#: Budget of ``warm``'s cache fill.  The fill caches each world's weeks
#: and campaigns, and its report under this budget, so a measured study
#: at :data:`LANDMARKS` misses the report and redoes CBG and analysis.
#: Weeks and campaigns do not depend on the budget; a small one keeps
#: the fill's own CBG short.
FILL_LANDMARKS = 10
#: Times ``warm`` fills its template cache from empty.  Each fill is one
#: set-up sample per world; one round gives too few to take a median of.
FILL_ROUNDS = 3
#: Import probes timed as the set-up of the cold workload.
SETUP_PROBES = 12
#: A run kills whatever program invocation is still going after this long.
RUN_LIMIT_S = 170.0

WORKLOADS = ("cold", "warm")
DATASETS = ("US-Campus", "EU1-Campus", "EU1-ADSL", "EU1-FTTH", "EU2")

_TABLE1_ROW = re.compile(r"^\s*(\S+)\s+(\d+)\s+(\d+\.\d+)\s+(\d+)\s+(\d+)$")
_PREFERRED_ROW = re.compile(
    r"^(\S+)\s+preferred=(\S+)\s+share=\s*(\d+\.\d)%\s+"
    r"non-preferred flows=\s*(\d+\.\d)%$",
    re.M,
)
_DIGEST_ROW = re.compile(r"^digest (\S+) ([0-9a-f]{64})$", re.M)


class BadOutput(Exception):
    """A study exited cleanly but printed a wrong or malformed report."""


def check_report(text: str) -> None:
    """Validate one ``repro study`` summary report.

    Raises:
        BadOutput: Naming the first property the report violates.
    """
    table1 = text.split("\n\n", 1)[0].splitlines()
    rows = [m.groups() for m in map(_TABLE1_ROW.match, table1) if m]
    if tuple(row[0] for row in rows) != DATASETS:
        raise BadOutput(f"Table I rows {[row[0] for row in rows]}")
    for row in rows:
        if min(int(row[1]), int(row[3]), int(row[4])) <= 0 or float(row[2]) <= 0:
            raise BadOutput(f"empty Table I row {row}")
    preferred = _PREFERRED_ROW.findall(text)
    if tuple(row[0] for row in preferred) != DATASETS:
        raise BadOutput(f"preferred rows {[row[0] for row in preferred]}")
    for name, dc, share, _ in preferred:
        # The paper's first finding: one preferred data center carries a
        # large share of each vantage point's bytes (EU2, whose ISP hosts
        # servers of its own, has the smallest at about 40%).
        if float(share) < 25.0:
            raise BadOutput(f"{name}: preferred {dc} carries only {share}%")
    if sorted(m[0] for m in _DIGEST_ROW.findall(text)) != sorted(DATASETS):
        raise BadOutput("missing or malformed digest lines")


def reference_s() -> float:
    """Wall time of a fixed kernel: this machine's speed right now.

    Dict, list, string and pickle work, like the study's own.  It lives in
    the benchmark, so no change to the program can move it.
    """
    start = time.perf_counter()
    rng = random.Random(1)
    rows = [
        {"ip": rng.randrange(1 << 32), "bytes": rng.random() * 1e6, "video": str(rng.randrange(5000))}
        for _ in range(60_000)
    ]
    totals: Dict[str, float] = {}
    for row in rows:
        totals[row["video"]] = totals.get(row["video"], 0.0) + row["bytes"]
    pickle.loads(pickle.dumps(rows))
    rows.sort(key=lambda row: row["ip"])
    return time.perf_counter() - start


def world_seeds(seed: int) -> List[int]:
    """The run's world seeds, a pure function of ``--seed``."""
    return random.Random(seed).sample(range(1, 1_000_000), WORLDS)


def child_env(cache_dir: Path, cache: bool = True) -> Dict[str, str]:
    """The program's environment: this checkout's sources, a private cache."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    if not cache:
        env["REPRO_CACHE"] = "off"
    return env


@dataclass
class Invocation:
    """One finished program run: exit code, wall time, peak RSS, output.

    ``ratio`` is the wall time as a multiple of the reference kernel's
    time around the run.
    """

    code: int
    wall_s: float
    rss_kb: int
    stdout: str
    stderr: str
    ratio: float = 0.0

    def describe(self) -> str:
        tail = self.stderr.strip().splitlines()[-3:]
        return f"exit {self.code}: " + " | ".join(tail)


def invoke(
    args: Sequence[str], env: Dict[str, str], workdir: Path, timeout_s: float
) -> Invocation:
    """Run ``python -m repro <args>`` and reap it with :func:`os.wait4`.

    Output goes to files, not pipes, so the child never blocks on a full
    pipe while the parent sits in ``wait4``; a timer kills a child still
    running after ``timeout_s``.
    """
    out_path = workdir / "stdout.txt"
    err_path = workdir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
        )
        timer = threading.Timer(timeout_s, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(
        proc.returncode,
        wall_s,
        int(usage.ru_maxrss),
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_text(encoding="utf-8", errors="replace"),
    )


def study_args(seed: int, landmarks: int = LANDMARKS) -> List[str]:
    return ["study", "--scale", str(SCALE), "--seed", str(seed),
            "--landmarks", str(landmarks), "--digests"]


def fresh_dir(run_dir: Path, name: str) -> Path:
    path = run_dir / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def required(inv: Invocation, what: str) -> Invocation:
    """Abort the run when a step the workload cannot do without fails."""
    if inv.code != 0:
        raise SystemExit(f"perfbench: {what} failed ({inv.describe()})")
    return inv


class Run:
    """Counters and checks shared by every workload of one run."""

    def __init__(self, workload: str, seed: int, seconds: float, run_dir: Path):
        self.workload = workload
        self.worlds = world_seeds(seed)
        self.seconds = seconds
        self.run_dir = run_dir
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.setup_runs: List[Invocation] = []
        self.refs: List[float] = []
        self.first_output: Dict[int, str] = {}
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def invoke(self, args: Sequence[str], env: Dict[str, str]) -> Invocation:
        """Run the program once, with the reference kernel timed around it."""
        if not self.refs:
            self.refs.append(reference_s())
        inv = invoke(args, env, self.run_dir, max(1.0, self.deadline - time.monotonic()))
        self.refs.append(reference_s())
        inv.ratio = inv.wall_s / ((self.refs[-2] + self.refs[-1]) / 2)
        return inv

    def mismatch(self, why: str) -> None:
        print(f"perfbench: {self.workload}: {why}", file=sys.stderr)
        self.correct = False

    def iterations(self):
        """Yield world seeds until the time budget and every world are used."""
        start = time.perf_counter()
        i = 0
        while i < WORLDS or time.perf_counter() - start < self.seconds:
            yield self.worlds[i % WORLDS]
            i += 1

    def check_repeat(self, world: int, text: str) -> None:
        first = self.first_output.setdefault(world, text)
        if first != text:
            self.mismatch(f"world {world} printed different bytes on a repeat")

    # ----------------------------------------------------------------- set-up

    def setup(self) -> Dict[int, str]:
        """Run and time the workload's set-up; return each filled world's report.

        ``cold`` starts the program :data:`SETUP_PROBES` times (interpreter
        start, module imports, bytecode on the first probe).  ``warm``
        simulates each world into an empty template cache, the way a
        first ``repro study`` run does, :data:`FILL_ROUNDS` times.
        """
        filled: Dict[int, str] = {}
        if self.workload == "warm":
            for _ in range(FILL_ROUNDS):
                env = child_env(fresh_dir(self.run_dir, "template"))
                for world in self.worlds:
                    inv = required(self.invoke(study_args(world, FILL_LANDMARKS), env), "cache fill")
                    try:
                        check_report(inv.stdout)
                    except BadOutput as exc:
                        raise SystemExit(f"perfbench: cache fill of world {world}: {exc}")
                    if filled.setdefault(world, inv.stdout) != inv.stdout:
                        self.mismatch(f"world {world}: two cache fills printed different bytes")
                    self.setup_runs.append(inv)
        else:
            env = child_env(fresh_dir(self.run_dir, "probe"))
            for _ in range(SETUP_PROBES):
                self.setup_runs.append(required(self.invoke(["cache", "stats"], env), "program start"))
        return filled

    def study_cache(self) -> Path:
        """The cache directory of the next study: empty, or a copy of the fill."""
        if self.workload != "warm":
            return fresh_dir(self.run_dir, "cache")
        cache_dir = self.run_dir / "cache"
        shutil.rmtree(cache_dir, ignore_errors=True)
        shutil.copytree(self.run_dir / "template", cache_dir)
        return cache_dir

    # ------------------------------------------------------------ measuring

    def measure(self, study: Callable[[int, Path], Tuple[str, Dict[str, float]]]):
        """Run ``study(world, cache_dir)`` until the budget is used.

        ``study`` returns the report text and that study's measurements.
        Only studies whose report passes every check are kept.

        Returns:
            The kept measurements, one dict per study.
        """
        filled = self.setup()
        samples: List[Dict[str, float]] = []
        for world in self.iterations():
            cache_dir = self.study_cache()
            self.attempted += 1
            try:
                text, sample = study(world, cache_dir)
                check_report(text)
            except BadOutput as exc:
                self.failed += 1
                self.mismatch(f"world {world}: {exc}")
                continue
            samples.append(sample)
            self.check_repeat(world, text)
            if world in filled:
                self.check_cached_weeks(world, filled[world], text)
        if not samples:
            raise SystemExit("perfbench: no study succeeded")
        return samples

    def check_cached_weeks(self, world: int, filled: str, text: str) -> None:
        """A re-analysis reads back exactly the weeks the fill simulated.

        Tables I and II and the content digests depend on the weeks only,
        never on the landmark budget.
        """
        def weeks_part(report: str) -> Tuple[str, List[str]]:
            return report.split("TABLE III", 1)[0], _DIGEST_ROW.findall(report)

        if weeks_part(filled) != weeks_part(text):
            self.mismatch(f"world {world}: cached weeks differ from the simulated ones")

    def end_to_end(self) -> Dict[str, Dict[str, float]]:
        def study(world: int, cache_dir: Path):
            inv = self.invoke(study_args(world), child_env(cache_dir))
            if inv.code != 0:
                raise BadOutput(inv.describe())
            return inv.stdout, {"ratio": inv.ratio, "rss_kb": inv.rss_kb}

        samples = self.measure(study)
        return {
            "study_ref": {"value": median(samples, "ratio"), "unit": "x"},
            "peak_rss_mb": {"value": median(samples, "rss_kb") / 1024.0, "unit": "MB"},
            "setup_ref": {"value": statistics.median(inv.ratio for inv in self.setup_runs), "unit": "x"},
            "setup_s": {"value": statistics.median(inv.wall_s for inv in self.setup_runs), "unit": "s"},
        }

    def traced(self) -> Dict[str, Dict[str, float]]:
        import layers

        for name in [name for name in os.environ if name.startswith("REPRO_")]:
            del os.environ[name]
        sys.path.insert(0, str(SRC))

        def study(world: int, cache_dir: Path):
            return layers.traced_study(world, SCALE, LANDMARKS, cache_dir)

        samples = self.measure(study)
        # The layer composition must print what the program prints.
        world = self.worlds[0]
        batch = self.invoke(study_args(world), child_env(self.run_dir / "reference", cache=False))
        if batch.code != 0 or batch.stdout != self.first_output.get(world):
            self.mismatch(f"world {world}: layer composition differs from 'repro study'")
        return {
            name: {"value": median(samples, name), "unit": unit}
            for name, unit in layers.UNITS.items()
        }


def median(samples: List[Dict[str, float]], name: str) -> float:
    return statistics.median(sample[name] for sample in samples)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {SRC}")

    SCRATCH.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    try:
        run = Run(args.workload, args.seed, args.seconds, run_dir)
        metrics = run.traced() if args.trace else run.end_to_end()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({
        "correct": run.correct and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
