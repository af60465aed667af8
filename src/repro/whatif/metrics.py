"""Metric extraction for what-if comparisons.

Unlike the measurement pipeline (:mod:`repro.core`), what-if analysis is
done from the *operator's* seat: the simulator's ground truth is fair game,
because the question is "what would change", not "what can be inferred".
Metrics cover the two audiences the paper names: ISPs (traffic patterns —
where the bytes come from, how much crosses the peering edge) and users
(startup delay, serving RTT).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.artifacts.memo import memoized_stage
from repro.cdn.redirection import CAUSE_MISS, CAUSE_OVERLOAD_INTER, CAUSE_OVERLOAD_INTRA
from repro.reporting.series import Cdf
from repro.sim.week import SimulationResult


@dataclass(frozen=True)
class ScenarioMetrics:
    """Headline metrics of one simulated scenario.

    A row carries no name: it is a function of its world alone, so every
    grid point that builds the same world reads the same row, and the
    point supplies the name.

    Attributes:
        requests: User video requests served.
        flows: Flows observed at the edge.
        volume_gb: Downloaded volume.
        preferred_share: Fraction of requests served by the vantage point's
            ground-truth preferred data center.
        top_dc_share: Fraction served by whichever data center served most.
        distinct_dcs: Data centers that served at least one request.
        redirect_rate: Redirected requests per request.
        miss_rate: Content-miss redirects per request.
        overload_rate: Overload redirects (intra + inter) per request.
        median_startup_s: Median video startup delay, seconds.
        p90_startup_s: 90th-percentile startup delay, seconds.
        median_serving_rtt_ms: Median RTT to the serving server.
    """

    requests: int
    flows: int
    volume_gb: float
    preferred_share: float
    top_dc_share: float
    distinct_dcs: int
    redirect_rate: float
    miss_rate: float
    overload_rate: float
    median_startup_s: float
    p90_startup_s: float
    median_serving_rtt_ms: float


def extract_metrics(result: SimulationResult) -> ScenarioMetrics:
    """Compute the metric row for one simulation result.

    Args:
        result: A finished run.

    Returns:
        The :class:`ScenarioMetrics`.

    Raises:
        ValueError: For an empty run.
    """
    if result.requests == 0:
        raise ValueError("cannot extract metrics from an empty run")
    preferred_dc = result.truth.preferred_dc
    served = result.served_dc_counts
    top_dc = max(served, key=served.get)
    redirects = sum(
        count for cause, count in result.cause_counts.items() if cause != "direct"
    )
    misses = result.cause_counts.get(CAUSE_MISS, 0)
    overloads = result.cause_counts.get(CAUSE_OVERLOAD_INTER, 0) + result.cause_counts.get(
        CAUSE_OVERLOAD_INTRA, 0
    )
    startup = Cdf(result.startup_delay_samples)
    rtts = Cdf(result.serving_rtt_samples)
    return ScenarioMetrics(
        requests=result.requests,
        flows=len(result.dataset),
        volume_gb=result.dataset.total_bytes / 1e9,
        preferred_share=served.get(preferred_dc, 0) / result.requests,
        top_dc_share=served[top_dc] / result.requests,
        distinct_dcs=len(served),
        redirect_rate=redirects / result.requests,
        miss_rate=misses / result.requests,
        overload_rate=overloads / result.requests,
        median_startup_s=startup.median,
        p90_startup_s=startup.quantile(0.9),
        median_serving_rtt_ms=rtts.median,
    )


@memoized_stage("whatif/metrics")
def scenario_metrics(
    spec,
    scale: float,
    seed: int,
    duration_s: float,
    policy_kind: str,
) -> ScenarioMetrics:
    """One scenario's week reduced to its metric row (disk-memoized).

    The row is a few hundred bytes, so a warm grid loads only rows — the
    multi-megabyte week artifacts underneath (``"sim/run_week"``,
    written by the driver's memo layer on the cold pass) never leave the
    disk.  The key holds the world's inputs and nothing else, so a
    variant, a sweep point and a grid point that build the same world
    share one artifact; :func:`repro.spec.runner.run_grid` fans rows out
    through ``scenario_metrics.map``, and only the compact row crosses
    the process boundary.
    """
    from repro.sim.driver import run_spec

    run = run_spec(spec, scale=scale, seed=seed, duration_s=duration_s, policy_kind=policy_kind)
    return extract_metrics(run)
