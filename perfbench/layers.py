"""Layer-split traced study: the benchmark's own spans around library calls.

:func:`traced_study` composes one ``repro study --digests`` report from the
library's layer entry points -- the same calls the CLI makes -- and wraps
each call in a span.  A layer's self time is its spans' duration minus
the part covered by child spans; artifact-cache reads and writes, world
builds and request serving are child spans of whichever layer issued them.

Layers, in the order a study runs them:

``weeks``     the five simulated weeks: the driver's fan-out and memo
              around world builds and request serving, or reading the
              weeks back from a filled cache;
``build``     scenario world builds (``repro.sim.driver.build_world``);
``serve``     workload generation and request serving
              (``repro.sim.driver.run_requests``);
``cache``     artifact-store reads and writes (pickling and file I/O);
``analysis``  Tables I-III inputs and preferred data centers;
``rtt``       the per-vantage RTT campaigns;
``cbg``       CBG calibration, per-server geolocation and clustering;
``render``    the report text, with the non-preferred shares it computes,
              and the datasets' content digests.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

UNITS = {
    "weeks_s": "s",
    "build_s": "s",
    "serve_s": "s",
    "cache_s": "s",
    "analysis_s": "s",
    "rtt_s": "s",
    "cbg_s": "s",
    "render_s": "s",
    "traced_study_s": "s",
    "cache_hits": "count",
    "cache_misses": "count",
    "cache_read_mb": "MB",
    "cache_written_mb": "MB",
    "flows": "count",
    "servers_geolocated": "count",
}


class Spans:
    """Per-layer self time over nested spans."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {}
        self._children: List[float] = []

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        start = time.perf_counter()
        self._children.append(0.0)
        try:
            yield
        finally:
            covered = self._children.pop()
            duration = time.perf_counter() - start
            self.self_s[layer] = self.self_s.get(layer, 0.0) + duration - covered
            if self._children:
                self._children[-1] += duration


@contextmanager
def traced_calls(spans: Spans) -> Iterator[None]:
    """Span every artifact-store read and write, world build and serve.

    ``simulate_week`` looks ``build_world`` and ``run_requests`` up in
    ``repro.sim.driver`` each time it runs, so patching them there covers
    the in-process (serial) executor the traced study runs under.
    """
    from repro.artifacts.store import ArtifactStore
    from repro.sim import driver

    targets = [
        (ArtifactStore, "get", "cache"),
        (ArtifactStore, "put", "cache"),
        (driver, "build_world", "build"),
        (driver, "run_requests", "serve"),
    ]
    originals = [getattr(owner, name) for owner, name, _ in targets]

    def wrap(function, layer):
        def traced(*args, **kwargs):
            with spans.span(layer):
                return function(*args, **kwargs)
        return traced

    for (owner, name, layer), function in zip(targets, originals):
        setattr(owner, name, wrap(function, layer))
    try:
        yield
    finally:
        for (owner, name, _), function in zip(targets, originals):
            setattr(owner, name, function)


def traced_study(
    seed: int, scale: float, landmarks: int, cache_dir: os.PathLike
) -> Tuple[str, Dict[str, float]]:
    """Run one traced study.

    Args:
        seed: World seed.
        scale: Traffic scale.
        landmarks: CBG landmark budget.
        cache_dir: The artifact cache this study reads and fills; an
            empty one makes a cold study, a filled one a warm one.

    Returns:
        ``(report text, per-layer metrics)``.
    """
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    from repro.artifacts.store import default_store
    from repro.core.pipeline import StudyPipeline
    from repro.sim.driver import clear_cache, run_all
    from repro.stream.study import render_stream_report

    store = default_store()
    hits, misses = store.stats.hits, store.stats.misses
    read, written = store.stats.bytes_read, store.stats.bytes_written
    spans = Spans()
    start = time.perf_counter()
    with traced_calls(spans):
        with spans.span("weeks"):
            # Forget this process's memo of earlier weeks, so they are
            # simulated or read from disk as in a fresh process.
            clear_cache()
            results = run_all(scale=scale, seed=seed)
            study = StudyPipeline(results, landmark_count=landmarks)
        with spans.span("analysis"):
            study.summaries, study.as_breakdowns, study.focus_ips
        with spans.span("rtt"):
            study.rtt_campaigns
        with spans.span("cbg"):
            study.server_map
        with spans.span("analysis"):
            study.table3_rows, study.preferred_reports, study.focus_tables
        with spans.span("render"):
            # The summary report renderer the streamed study shares; it
            # accepts a batch pipeline too.
            text = render_stream_report(study)
            text += "".join(
                f"digest {name} {results[name].dataset.content_digest()}\n"
                for name in sorted(results)
            )
    total = time.perf_counter() - start
    metrics = {name: 0.0 for name in UNITS}
    metrics.update({f"{layer}_s": seconds for layer, seconds in spans.self_s.items()})
    metrics.update({
        "traced_study_s": total,
        "cache_hits": store.stats.hits - hits,
        "cache_misses": store.stats.misses - misses,
        "cache_read_mb": (store.stats.bytes_read - read) / 1e6,
        "cache_written_mb": (store.stats.bytes_written - written) / 1e6,
        "flows": sum(s.flows for s in study.summaries.values()),
        "servers_geolocated": len({ip for ips in study.focus_ips.values() for ip in ips}),
    })
    return text, metrics
