"""Active RTT probing.

The measurement primitive behind Figure 2 (vantage-point ping campaigns),
CBG's landmark probes, and the PlanetLab experiments: send a handful of
pings, keep the minimum.  The prober owns its RNG so that measurement noise
never perturbs the simulated world's randomness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.artifacts.memo import memoized_stage
from repro.faults import report as degradation
from repro.faults.plan import FaultPlan, active_plan
from repro.faults.retry import MAX_ATTEMPTS
from repro.net.latency import LatencyModel, Site, min_of_probes


class RttProber:
    """Min-filtered RTT measurements over the shared delay model.

    Args:
        latency: The world's delay model.
        probes: Pings per measurement (the minimum is reported).
        seed: RNG seed for queueing noise.
    """

    def __init__(self, latency: LatencyModel, probes: int = 10, seed: int = 0):
        if probes < 1:
            raise ValueError("probes must be >= 1")
        self._latency = latency
        self._probes = probes
        self._rng = random.Random(seed)
        self.measurements = 0

    @property
    def latency(self) -> LatencyModel:
        """The delay model this prober measures."""
        return self._latency

    def measure_ms(self, origin: Site, target: Site) -> float:
        """One min-filtered RTT measurement, in milliseconds."""
        return self.measure_floor_ms(*self._latency.floor_and_rate(origin, target))

    def measure_floor_ms(self, floor_ms: float, rate: float) -> float:
        """One min-filtered measurement of a path with a known floor.

        ``(floor_ms, rate)`` is :meth:`LatencyModel.floor_and_rate` of the
        path, so a caller measuring the same pair repeatedly (CBG's
        landmark calibration) computes it once.  Draws exactly what
        :meth:`measure_ms` of that pair would.
        """
        self.measurements += 1
        return min_of_probes(floor_ms, rate, self._rng, self._probes)

    def campaign(self, origin: Site, targets: Mapping[str, Site]) -> Dict[str, float]:
        """Measure from one origin to many labelled targets.

        Returns:
            Mapping from target label to measured min RTT (ms).
        """
        return {label: self.measure_ms(origin, site) for label, site in targets.items()}

    def matrix(
        self, origins: Mapping[str, Site], targets: Mapping[str, Site]
    ) -> Dict[Tuple[str, str], float]:
        """Full origin × target measurement matrix."""
        results: Dict[Tuple[str, str], float] = {}
        for o_label, o_site in origins.items():
            for t_label, t_site in targets.items():
                results[(o_label, t_label)] = self.measure_ms(o_site, t_site)
        return results


@dataclass(frozen=True)
class CampaignJob:
    """One self-contained ping campaign: a vantage point's full sweep.

    Self-contained means picklable and order-deterministic: the job names
    its own RNG seed, and targets are measured in the mapping's insertion
    order, so the same job measures the same values in any process.

    Attributes:
        label: Campaign label (timing reports and error messages).
        latency: The shared delay model (read-only during measurement).
        origin: Probing origin site.
        targets: Target label → site, in measurement order.
        probes: Pings per measurement.
        seed: Seed for this campaign's private prober RNG.
    """

    label: str
    latency: LatencyModel
    origin: Site
    targets: Dict[object, Site] = field(hash=False)
    probes: int = 10
    seed: int = 0

    def cache_fingerprint(self) -> Dict[str, object]:
        """Canonical identity for artifact-cache keys.

        Target order is *preserved* (the campaign's RNG is shared across
        targets, so reordering changes the measured values), and the
        cosmetic ``label`` is excluded — two differently-labelled sweeps
        of the same targets measure the same numbers.
        """
        return {
            "latency": self.latency,
            "origin": self.origin,
            "targets": [[label, site] for label, site in self.targets.items()],
            "probes": self.probes,
            "seed": self.seed,
        }


def run_campaign_job(job: CampaignJob) -> Dict[object, float]:
    """Process-safe unit of work: run one campaign with a fresh prober."""
    prober = RttProber(job.latency, probes=job.probes, seed=job.seed)
    return prober.campaign(job.origin, job.targets)


@dataclass(frozen=True)
class CampaignOutcome:
    """A faulted campaign's result plus its degradation accounting.

    Attributes:
        measurements: Target label → measured min RTT (lost targets absent).
        lost: Targets lost outright (probe loss, or timeouts that
            exhausted their retries).
        timeouts: Individual measurement attempts that timed out.
        retried: Measurement attempts that were retried after a timeout.
    """

    measurements: Dict[object, float]
    lost: int = 0
    timeouts: int = 0
    retried: int = 0


def run_campaign_job_faulted(job: CampaignJob) -> CampaignOutcome:
    """Run one campaign under the ambient fault plan.

    Probe loss drops a target before any measurement; timeouts fail
    individual measurement *attempts*, and a timed-out target is measured
    again, up to :data:`~repro.faults.retry.MAX_ATTEMPTS` attempts (an
    exhausted target counts as lost).  Every decision is keyed on
    ``(plan.seed, campaign label, target label, attempt)``, so the same
    (seed, plan) loses the same probes in a pool or in-process.  Falls
    back to the clean path when no plan is active.
    """
    plan = active_plan()
    if plan is None:
        return CampaignOutcome(measurements=run_campaign_job(job))
    prober = RttProber(job.latency, probes=job.probes, seed=job.seed)
    measurements: Dict[object, float] = {}
    lost = timeouts = retried = 0
    for t_label, site in job.targets.items():
        if plan.decide(plan.probe_loss, "probe/loss", job.label, str(t_label)):
            lost += 1
            continue
        value, failed = _measure_with_timeouts(prober, job, plan, t_label, site)
        timeouts += failed
        retried += min(failed, MAX_ATTEMPTS - 1)
        if value is None:
            lost += 1
        else:
            measurements[t_label] = value
    return CampaignOutcome(
        measurements=measurements, lost=lost, timeouts=timeouts, retried=retried
    )


def _measure_with_timeouts(
    prober: RttProber,
    job: CampaignJob,
    plan: FaultPlan,
    t_label: object,
    site: Site,
) -> Tuple[Optional[float], int]:
    """One target's measurement, attempted again while a timeout fails it.

    Returns:
        ``(value, failed)``: the first attempt's measurement that did not
        time out (``None`` if every attempt did), and how many attempts
        timed out.
    """
    for attempt in range(1, MAX_ATTEMPTS + 1):
        value = prober.measure_ms(job.origin, site)
        if not plan.attempt_fails(
            plan.probe_timeout, attempt, "probe/timeout", job.label, str(t_label)
        ):
            return value, attempt - 1
    return None, MAX_ATTEMPTS


@memoized_stage("geoloc/campaign")
def measure_campaign(job: CampaignJob):
    """One campaign's raw result (disk-memoized).

    A :class:`CampaignJob` is a frozen dataclass over canonicalisable
    parts (the delay model carries a ``cache_fingerprint``; sites are
    dataclasses), so the whole job keys the artifact.  Under an active
    fault plan the value is a :class:`CampaignOutcome`; the plan is
    folded into every stage key, so faulted campaigns never shadow clean
    ones.
    """
    if active_plan() is not None:
        return run_campaign_job_faulted(job)
    return run_campaign_job(job)


def run_campaigns(jobs: Sequence[CampaignJob]) -> List[Dict[object, float]]:
    """Fan independent campaigns out (:func:`~repro.exec.executor.fan_out`).

    Every job owns its RNG, so campaigns never share random state and a
    pooled round measures what an in-process one would.  Measured matrices are small and
    campaigns are re-run for every analysis pass, so they go through
    :func:`measure_campaign`'s cached fan-out: only unmeasured campaigns
    run.  Exotic target labels that resist canonicalisation just make a
    job uncacheable — never wrongly shared.

    Under an active fault plan each campaign runs the faulted runner
    (probe loss and retried timeouts; lost targets are simply absent
    from the returned mapping) and its degradation is recorded.

    Returns:
        One measurement mapping per job, in input order.
    """
    jobs = list(jobs)
    values, _ = measure_campaign.map(
        [(job,) for job in jobs], labels=[job.label for job in jobs]
    )
    return [_unpack_outcome(job, value) for job, value in zip(jobs, values)]


def _unpack_outcome(job: CampaignJob, value) -> Dict[object, float]:
    """Normalise a campaign result, recording any degradation it carries."""
    if not isinstance(value, CampaignOutcome):
        return value
    degradation.record(
        "geoloc/campaign",
        completed=1,
        degraded=1 if value.lost else 0,
        probes_lost=value.lost,
        timeouts=value.timeouts,
        retried=value.retried,
    )
    return value.measurements
