"""The simulation engine: push a request stream through the world.

Requests are processed in time order so that the stateful mechanisms —
DNS assignment budgets, per-server hourly loads, pull-through caching —
see the same causal order a real week would produce.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from typing import Dict, Iterator, List, Optional, Sequence

from repro import obs
from repro.cdn.cluster import Flow, ServingClient
from repro.sim.scenarios import ScenarioWorld
from repro.sim.seeding import derive_seed
from repro.sim.week import (
    TRUTH_DNS,
    TRUTH_PREFERRED,
    TRUTH_REDIRECTION,
    GroundTruthLog,
    SimulationResult,
)
from repro.trace.columnar import FlowTable, split_windows
from repro.trace.monitor import EdgeMonitor
from repro.workload.requests import Request


#: Cap on retained per-request performance samples (reservoir truncation).
_MAX_PERF_SAMPLES = 50_000

#: Default monitor classification-miss probability (shared by every
#: engine entry point and by the cache keys over them).
DEFAULT_MISS_PROBABILITY = 0.002


class RequestProcessor:
    """Per-vantage processing state: monitor, RNG, caches, result tallies."""

    def __init__(
        self,
        world: ScenarioWorld,
        miss_probability: float = DEFAULT_MISS_PROBABILITY,
    ):
        self.world = world
        measured = world.measured()
        self.monitor = EdgeMonitor(
            measured.vantage,
            miss_probability=miss_probability,
            seed=derive_seed(world.seed, world.spec.name, "monitor"),
        )
        self._serve_rng = random.Random(
            derive_seed(world.seed, world.spec.name, "serve")
        )
        self._clients: Dict[int, ServingClient] = {}
        self._flows: List[Flow] = []
        self.result = SimulationResult(world=measured, dataset=None, requests=0)
        # The truth's per-request columns, frozen at finish.
        self._truth = ([], [], [], [], [], [], [])
        # Anchor resolver for ground-truth labels: the first non-divergent
        # subnet's resolver — the vantage point's canonical view, matching
        # the single preferred data center the blind pipeline infers per
        # dataset.  (Divergent subnets are exactly the ones whose answers
        # should read as DNS-caused deviations.)
        self._anchor_resolver: Optional[str] = None
        subnets = getattr(world.spec, "subnets", ())
        for subnet_spec in subnets:
            if not getattr(subnet_spec, "divergent_resolver", False):
                self._anchor_resolver = f"{world.spec.name}/{subnet_spec.name}"
                break
        if self._anchor_resolver is None and subnets:
            self._anchor_resolver = f"{world.spec.name}/{subnets[0].name}"

    def _client(self, client_ip: int) -> ServingClient:
        vantage = self.world.vantage
        client = self.world.system.serving_client(
            client_ip, vantage.client_site(client_ip), vantage.resolver_for(client_ip)
        )
        self._clients[client_ip] = client
        return client

    def process(self, request: Request) -> None:
        """Serve one request, record its flows and ground truth."""
        world = self.world
        result = self.result
        client_ip = request.client.ip
        client = self._clients.get(client_ip) or self._client(client_ip)
        flows = self._flows
        flows.clear()
        t_s = request.t_s
        decision = world.system.serve(
            client, request.video, request.resolution, t_s, self._serve_rng, flows
        )
        self.monitor.observe(flows)
        hops = decision.hops
        dns_dc = hops[0].dc_id
        served_dc = hops[-1].dc_id
        result.requests += 1
        result.dns_dc_counts[dns_dc] += 1
        result.served_dc_counts[served_dc] += 1
        # Ground truth: what the policy intended vs. what happened.  The
        # anchor lookup is a pure observation (preferred_now consumes no
        # randomness), so recording truth never perturbs the week.
        anchor_dc = None
        if self._anchor_resolver is not None:
            try:
                anchor_dc = world.system.policy.preferred_now(self._anchor_resolver, t_s)
            except KeyError:
                anchor_dc = None
        if anchor_dc is None:
            # Hand-built worlds without a configured anchor resolver:
            # degrade to labelling relative to the DNS answer itself.
            anchor_dc = dns_dc
        if dns_dc != anchor_dc:
            label = TRUTH_DNS
        elif len(hops) > 1 and any(hop.dc_id != anchor_dc for hop in hops):
            label = TRUTH_REDIRECTION
        else:
            label = TRUTH_PREFERRED
        clients, videos, times, anchors, answers, servers, labels = self._truth
        clients.append(client_ip)
        videos.append(request.video.video_id)
        times.append(t_s)
        anchors.append(anchor_dc)
        answers.append(dns_dc)
        servers.append(served_dc)
        labels.append(label)
        if decision.causes:
            for cause in decision.causes:
                result.cause_counts[cause] += 1
        else:
            result.cause_counts["direct"] += 1
        if len(result.startup_delay_samples) < _MAX_PERF_SAMPLES:
            rtt_ms = client.floors.of(hops[-1])
            # Startup = redirect chain latency + one more RTT to first byte.
            startup = (flows[len(hops) - 1][0] - t_s) + 2.0 * rtt_ms / 1000.0
            result.startup_delay_samples.append(startup)
            result.serving_rtt_samples.append(rtt_ms)

    def finish(self) -> SimulationResult:
        """Close collection, freeze the ground truth and return the result."""
        result = self.result
        world = self.world
        result.dataset = self.monitor.finish(world.spec.name, world.duration_s)
        result.truth = GroundTruthLog.freeze(
            *self._truth,
            preferred_dc=_preferred_dc(world, result.served_dc_counts),
            servers=result.world.servers,
        )
        return result


def _preferred_dc(world: ScenarioWorld, served: Counter) -> Optional[str]:
    """The first subnet's resolver's top-ranked data center, else the
    most-served one (what ``--validate`` and the what-if metrics call the
    true preferred data center)."""
    spec = world.spec
    try:
        return world.system.policy.ranking_for(f"{spec.name}/{spec.subnets[0].name}")[0]
    except KeyError:
        return max(served, key=served.get) if served else None


def run_requests(
    world: ScenarioWorld,
    requests: Optional[Sequence[Request]] = None,
    miss_probability: float = DEFAULT_MISS_PROBABILITY,
) -> SimulationResult:
    """Run a request stream through the world and collect the trace.

    Args:
        world: The built scenario world.
        requests: Request stream; generated from the world's generator when
            omitted.
        miss_probability: Monitor classification-miss probability.

    Returns:
        The :class:`SimulationResult` with the dataset and ground truth.
    """
    name = world.spec.name
    if requests is None:
        with obs.span("sim/workload", layer="sim.workload", dataset=name) as active:
            requests = world.generator.generate(world.duration_s)
            if active is not None:
                active.attrs["requests"] = len(requests)
    processor = RequestProcessor(world, miss_probability=miss_probability)
    with obs.span("sim/serve", layer="sim.serve", dataset=name, requests=len(requests)) as active:
        for request in requests:
            processor.process(request)
        result = processor.finish()
        if active is not None:
            active.attrs["flows"] = processor.monitor.observed
    return result


def sealed_windows(world: ScenarioWorld, window_s: float) -> Iterator[FlowTable]:
    """The world's generated week, collected window by window as it is served.

    Requests are served exactly as :func:`run_requests` serves them — same
    :class:`RequestProcessor`, same miss and serve RNG draws — and the
    monitor seals its kept flows into the half-open tumbling windows
    ``[k·W, (k+1)·W)`` of their ``t_start``.  Every flow of a request
    starts at or after the request's ``t_s``, so once a request's time
    passes a window's end no flow can still join that window, and it is
    sealed before the request is served.  The rest are sealed when the
    requests run out.  Windows come out in index order and empty ones are
    skipped, so the tables concatenate to the batch dataset's rows, and
    memory holds one window's flows rather than the week's.

    Raises:
        ValueError: If ``window_s`` is not positive.
    """
    if not window_s > 0:
        raise ValueError("window_s must be positive")
    requests = world.generator.generate(world.duration_s)
    processor = RequestProcessor(world)
    seal = processor.monitor.seal
    end = window_s  # the end of the window the last request fell in
    for request in requests:
        if request.t_s >= end:
            start = request.t_s // window_s * window_s
            yield from split_windows(seal(start), window_s)
            end = start + window_s
        processor.process(request)
    yield from split_windows(seal(math.inf), window_s)
