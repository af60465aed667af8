"""Property-based invariants of the monitoring subsystem (hypothesis).

Randomised checks of the contracts :mod:`repro.monitor` advertises:

- **No change, no alarm**: a zero-evolution (static) world never alarms,
  at any horizon or epoch length.
- **Path invariance**: the detection verdict — alarms, ground truth,
  and the score — is byte-identical whether the epochs ran in-process or
  in a process pool, and across epoch lengths.
- **Planted change**: a single scheduled change is detected at exactly
  its epoch, wherever it lands in the horizon.
- **Metric axioms**: the pattern dissimilarity is symmetric, bounded in
  ``[0, 1]``, zero on identical snapshots, and never grows when probes
  are lost, for arbitrary cell layouts.

The whole module skips cleanly when hypothesis is not installed.
"""

from __future__ import annotations

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.monitor.cluster import cluster_snapshot  # noqa: E402
from repro.monitor.detect import pattern_dissimilarity  # noqa: E402
from repro.monitor.evolution import EvolutionPlan, EvolutionStep, STATIC_PLAN  # noqa: E402
from repro.monitor.run import run_monitor  # noqa: E402
from repro.monitor.snapshot import EpochSnapshot  # noqa: E402
from tests.execpaths import forced  # noqa: E402

SCALE = 0.01
SEED = 7

# Simulation-backed properties: each example is a real multi-epoch run,
# so examples are few and the deadline is off.
_SIM = settings(
    max_examples=4, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _verdict(report) -> str:
    return json.dumps(report.verdict_dict(), sort_keys=True)


# ------------------------------------------------ no change, no alarm


@_SIM
@given(
    epochs=st.integers(min_value=2, max_value=4),
    epoch_s=st.sampled_from([21600.0, 43200.0, 86400.0]),
)
def test_static_world_never_alarms(epochs, epoch_s):
    report = run_monitor("EU1-ADSL", plan=STATIC_PLAN, epochs=epochs,
                         epoch_s=epoch_s, scale=SCALE, seed=SEED)
    assert report.alarm_epochs() == []
    assert report.score.precision == 1.0
    assert report.score.recall == 1.0


# ------------------------------------------------------ path invariance

_BASELINE: dict = {}


def _serial_verdict(epochs: int) -> str:
    if epochs not in _BASELINE:
        with forced("in-process"):
            _BASELINE[epochs] = _verdict(run_monitor(
                "EU1-ADSL", plan=_plan_at(2), epochs=epochs, scale=SCALE, seed=SEED,
            ))
    return _BASELINE[epochs]


def _plan_at(epoch: int) -> EvolutionPlan:
    return EvolutionPlan(steps=(
        EvolutionStep(
            epoch=epoch,
            changes={"preferred_override": "dc-frankfurt"},
            label="flip",
        ),
    ))


def test_verdict_identical_across_backends():
    with forced("pooled"):
        report = run_monitor("EU1-ADSL", plan=_plan_at(2), epochs=3, scale=SCALE, seed=SEED)
    assert _verdict(report) == _serial_verdict(3)


@_SIM
@given(epoch_s=st.sampled_from([43200.0, 86400.0, 172800.0]))
def test_verdict_identical_across_epoch_lengths(epoch_s):
    report = run_monitor("EU1-ADSL", plan=_plan_at(2), epochs=3,
                         epoch_s=epoch_s, scale=SCALE, seed=SEED)
    doc = json.loads(_verdict(report))
    assert doc["alarms"] == [2]
    assert doc["score"]["f1"] == 1.0


# ------------------------------------------------------- planted change


@_SIM
@given(change_epoch=st.integers(min_value=1, max_value=3))
def test_planted_change_detected_at_its_epoch(change_epoch):
    report = run_monitor("EU1-ADSL", plan=_plan_at(change_epoch), epochs=4,
                         scale=SCALE, seed=SEED)
    assert report.alarm_epochs() == [change_epoch]
    assert report.truth == (change_epoch,)
    assert report.score.f1 == 1.0


# -------------------------------------------------------- metric axioms

_CELLS = st.lists(
    st.tuples(
        st.sampled_from(["Net-1", "Net-2"]),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=10_000),
    ),
    min_size=0, max_size=6,
    unique_by=lambda c: (c[0], c[1]),
)
_RTTS = st.dictionaries(
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=1.0, max_value=300.0,
              allow_nan=False, allow_infinity=False),
    max_size=6,
)


def _snapshot(cells, rtts) -> EpochSnapshot:
    rows = tuple((s, p, b, 1) for s, p, b in sorted(cells))
    prefixes = {p for _, p, _, _ in rows}
    return EpochSnapshot(
        name="t", epoch=0, duration_s=1.0, prefix_len=24, cells=rows,
        rtt_ms=tuple(sorted(
            (p, round(r, 3)) for p, r in rtts.items() if p in prefixes
        )),
        bytes_total=sum(r[2] for r in rows),
        flows_total=len(rows),
        probes_lost=0,
    )


@settings(max_examples=200, deadline=None)
@given(cells_a=_CELLS, rtts_a=_RTTS, cells_b=_CELLS, rtts_b=_RTTS)
def test_dissimilarity_axioms(cells_a, rtts_a, cells_b, rtts_b):
    a = cluster_snapshot(_snapshot(cells_a, rtts_a))
    b = cluster_snapshot(_snapshot(cells_b, rtts_b))
    d_ab = pattern_dissimilarity(a, b)
    assert 0.0 <= d_ab <= 1.0
    assert d_ab == pytest.approx(pattern_dissimilarity(b, a))
    assert pattern_dissimilarity(a, a) == 0.0
    assert pattern_dissimilarity(b, b) == 0.0


@settings(max_examples=100, deadline=None)
@given(cells=_CELLS, rtts_a=_RTTS, rtts_b=_RTTS,
       dropped=st.sets(st.integers(min_value=1, max_value=6)))
# The lost probe moves its cloud's centroid.
@example(cells=[("Net-1", 3, 1), ("Net-1", 5, 1)], rtts_a={3: 1.0, 5: 2.0},
         rtts_b={3: 1.0, 5: 2.0}, dropped={3})
# The lost probe splits its cloud in two, which re-pairs the clouds.
@example(cells=[("Net-1", 1, 20), ("Net-1", 2, 30), ("Net-1", 3, 50)],
         rtts_a={1: 1.0, 2: 8.0, 3: 15.0}, rtts_b={1: 40.0, 2: 100.0, 3: 15.0},
         dropped={2})
def test_probe_loss_never_increases_distance(cells, rtts_a, rtts_b, dropped):
    full = pattern_dissimilarity(
        cluster_snapshot(_snapshot(cells, rtts_a)),
        cluster_snapshot(_snapshot(cells, rtts_b)),
    )
    degraded = pattern_dissimilarity(
        cluster_snapshot(_snapshot(
            cells, {p: r for p, r in rtts_a.items() if p not in dropped})),
        cluster_snapshot(_snapshot(cells, rtts_b)),
    )
    assert degraded <= full + 1e-9
