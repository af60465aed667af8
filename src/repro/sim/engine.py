"""The simulation engine: push a request stream through the world.

Requests are processed in time order so that the stateful mechanisms —
DNS assignment budgets, per-server hourly loads, pull-through caching —
see the same causal order a real week would produce.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from typing import Callable, Dict, Iterator, List, Optional, Sequence

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
        record_sink: Optional[Callable] = None,
    ):
        self.world = world
        measured = world.measured()
        self.monitor = EdgeMonitor(
            measured.vantage,
            miss_probability=miss_probability,
            seed=derive_seed(world.seed, world.spec.name, "monitor"),
            sink=record_sink,
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


def stream_requests(world: ScenarioWorld) -> Iterator[object]:
    """Live-emit mode: the world's generated week as a time-ordered event stream.

    Yields :class:`~repro.stream.events.WatermarkAdvance` and
    :class:`~repro.stream.events.FlowArrival` events instead of collecting
    a :class:`~repro.trace.records.Dataset`.  Request processing is
    identical to :func:`run_requests` — same
    :class:`RequestProcessor`, same miss/serve RNG consumption — so the
    emitted records are exactly the batch dataset's records, in monitor
    observation order.  Only the retention differs: flows are handed off
    as they are observed, keeping memory independent of the flow count.

    Watermark semantics: requests are processed in increasing ``t_s`` and
    every flow a request produces starts at or after its ``t_s``, so the
    current request time is a valid low watermark — no later arrival can
    start before it.  A final infinite watermark closes the stream.
    """
    from repro.stream.events import FlowArrival, WatermarkAdvance

    requests = world.generator.generate(world.duration_s)
    fresh: List = []
    processor = RequestProcessor(world, record_sink=fresh.append)
    seq = 0
    for request in requests:
        yield WatermarkAdvance(t_s=request.t_s)
        processor.process(request)
        for record in fresh:
            yield FlowArrival(record=record, seq=seq)
            seq += 1
        fresh.clear()
    yield WatermarkAdvance(t_s=math.inf)
