"""CBG speedup benchmark: pair-by-pair spec vs. the runtime geolocator.

Calibrates CBG over the study's default landmark budget and geolocates
:data:`TARGETS` servers twice: through the spec in ``tests/oracle/cbg``
(every probe recomputes its floor, every grid point is a
``destination_point``, every constraint centre its own distance pass)
and through :mod:`repro.geoloc.cbg`.  Both must produce the same
bestlines, the same results and the same prober RNG state; the runtime
must be at least :data:`REQUIRED_SPEEDUP` times faster.

Run it with ``PYTHONPATH=src python -m pytest benchmarks/test_bench_cbg.py -s``.
Each side is timed with ``time.perf_counter``, best of :data:`REPEATS`
fresh calibrate-and-geolocate passes.
"""

from __future__ import annotations

import time
from typing import Callable, List, Tuple

from repro.geo.cities import default_atlas
from repro.geo.landmarks import generate_landmarks
from repro.geoloc.cbg import CbgGeolocator, CbgResult
from repro.geoloc.probing import RttProber
from repro.net.latency import AccessTechnology, LatencyModel, Site

from tests.oracle import cbg as oracle

LANDMARKS = 120
TARGETS = 40
PROBES = 6
REPEATS = 2
REQUIRED_SPEEDUP = 5.0


def _targets() -> List[Site]:
    cities = sorted(default_atlas(), key=lambda city: city.name)
    step = max(1, len(cities) // TARGETS)
    return [
        Site(f"srv:{city.name}", city.point, AccessTechnology.DATACENTER,
             group=f"dc-{city.name}")
        for city in cities[::step][:TARGETS]
    ]


def _run(geolocator_cls: Callable, prober_cls: Callable) -> Tuple[CbgGeolocator, List[CbgResult]]:
    landmarks = generate_landmarks(seed=42).subsample(LANDMARKS, seed=1)
    prober = prober_cls(LatencyModel(seed=123), probes=PROBES, seed=99)
    geolocator = geolocator_cls(landmarks, prober)
    return geolocator, [geolocator.geolocate_target(t) for t in _targets()]


def _best_of(fn: Callable) -> Tuple[float, object]:
    best, value = float("inf"), None
    for _ in range(REPEATS):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def test_bench_cbg_speedup_over_spec():
    spec_s, (spec, spec_results) = _best_of(
        lambda: _run(oracle.SpecCbgGeolocator, oracle.SpecProber)
    )
    runtime_s, (runtime, runtime_results) = _best_of(
        lambda: _run(CbgGeolocator, RttProber)
    )
    assert len(runtime_results) == TARGETS
    assert runtime_results == spec_results
    for lm in runtime.landmarks:
        assert runtime.bestline(lm.name) == spec.bestline(lm.name)
    assert runtime._prober._rng.getstate() == spec._prober._rng.getstate()
    assert runtime._prober.measurements == spec._prober.measurements

    speedup = spec_s / runtime_s
    print(
        f"\nCBG at {LANDMARKS} landmarks + {TARGETS} targets: "
        f"spec {spec_s:.3f}s, runtime {runtime_s:.3f}s, {speedup:.1f}x"
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"CBG runtime only {speedup:.2f}x faster than the spec "
        f"(need {REQUIRED_SPEEDUP}x)"
    )
