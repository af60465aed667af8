"""Run-scoped metrics: named counters, gauges, and histograms with labels.

The registry is the quantitative half of the observability layer
(:mod:`repro.obs.tracer` is the temporal half): injection sites and
caches record *how much* happened — cache hits per stage, per-get
latencies, and the ``degradation.*`` counters of a faulted run (retried
tasks, lost probes; :mod:`repro.faults.report`) — while spans record
*when*.  One registry lives on each :class:`~repro.obs.runctx.RunContext`;
worker tasks record into a capture-local registry that travels back to
the dispatching process and is merged (:func:`MetricsRegistry.merge`).
Everything but the degradation counters is recorded only while tracing
is on; those are written to the run's registry whenever a fault plan is
installed, and only in the recording process.

Everything here is plain data: registries pickle (they cross process
boundaries inside task captures) and snapshots are JSON-ready (they ride
along in the ``trace_<run>.jsonl`` footer).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

#: Histogram bucket upper bounds in seconds (a final +inf bucket is
#: implicit).  Tuned for cache/probe latencies: microseconds to seconds.
HISTOGRAM_BOUNDS: Tuple[float, ...] = (
    1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0,
)

#: Internal key: ``(name, (("label", "value"), ...))``.
MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _key(name: str, labels: Dict[str, Any]) -> MetricKey:
    return (name, tuple(sorted((k, str(v)) for k, v in labels.items())))


def flat_name(key: MetricKey) -> str:
    """A Prometheus-style flat rendering: ``name{label=value,...}``."""
    name, labels = key
    if not labels:
        return name
    return name + "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"


class Histogram:
    """Fixed-bucket latency histogram (seconds-oriented bounds).

    Attributes:
        counts: Per-bucket observation counts; one per bound plus a final
            overflow bucket.
        total: Sum of observed values.
        count: Number of observations.
        min / max: Observed extremes (``None`` before any observation).
    """

    __slots__ = ("counts", "total", "count", "min", "max")

    def __init__(self):
        self.counts: List[int] = [0] * (len(HISTOGRAM_BOUNDS) + 1)
        self.total = 0.0
        self.count = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Fold one observation in."""
        bucket = len(HISTOGRAM_BOUNDS)
        for i, bound in enumerate(HISTOGRAM_BOUNDS):
            if value <= bound:
                bucket = i
                break
        self.counts[bucket] += 1
        self.total += value
        self.count += 1
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's observations in."""
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.total += other.total
        self.count += other.count
        for bound in (other.min, other.max):
            if bound is None:
                continue
            self.min = bound if self.min is None else min(self.min, bound)
            self.max = bound if self.max is None else max(self.max, bound)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready view."""
        return {
            "bounds": list(HISTOGRAM_BOUNDS),
            "counts": list(self.counts),
            "count": self.count,
            "sum": round(self.total, 9),
            "min": None if self.min is None else round(self.min, 9),
            "max": None if self.max is None else round(self.max, 9),
        }


class MetricsRegistry:
    """Named counters, gauges, and histograms with label support.

    All three families share one naming scheme: a metric is identified by
    its name plus a (possibly empty) label set, e.g.
    ``counter("cache.hit", stage="sim/run_week")``.  The registry is
    plain-attribute and picklable, so worker-side registries travel back
    to the parent inside task captures.
    """

    def __init__(self):
        self.counters: Dict[MetricKey, float] = {}
        self.gauges: Dict[MetricKey, float] = {}
        self.histograms: Dict[MetricKey, Histogram] = {}

    # ----------------------------------------------------------- recording

    def inc(self, name: str, n: float = 1, **labels: Any) -> None:
        """Increment a counter (created at zero on first use)."""
        key = _key(name, labels)
        self.counters[key] = self.counters.get(key, 0) + n

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        """Set a gauge to its latest value."""
        self.gauges[_key(name, labels)] = value

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Fold one observation into a histogram."""
        key = _key(name, labels)
        histogram = self.histograms.get(key)
        if histogram is None:
            histogram = self.histograms[key] = Histogram()
        histogram.observe(value)

    # ----------------------------------------------------------- reading

    def counter_total(self, name: str) -> float:
        """One counter summed over every label set (0 when never seen)."""
        return sum(v for (n, _), v in self.counters.items() if n == name)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in (counters add, gauges last-wins)."""
        for key, value in other.counters.items():
            self.counters[key] = self.counters.get(key, 0) + value
        self.gauges.update(other.gauges)
        for key, histogram in other.histograms.items():
            mine = self.histograms.get(key)
            if mine is None:
                mine = self.histograms[key] = Histogram()
            mine.merge(histogram)

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready snapshot of everything recorded so far.

        Counters and gauges flatten to ``name{label=value}`` keys;
        histograms keep their bucket structure.  Keys are sorted so
        snapshots diff cleanly.
        """
        return {
            "counters": {
                flat_name(k): self.counters[k]
                for k in sorted(self.counters)
            },
            "gauges": {
                flat_name(k): self.gauges[k] for k in sorted(self.gauges)
            },
            "histograms": {
                flat_name(k): self.histograms[k].as_dict()
                for k in sorted(self.histograms)
            },
        }
