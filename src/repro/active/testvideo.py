"""The test-video experiment (Section VII-C, Figures 17 and 18).

Protocol, exactly as in the paper:

1. Upload a test video (it exists only at its origin data center).
2. From each of 45 PlanetLab nodes, download it every 30 minutes for 12
   hours; alongside each download, measure the RTT to the server that
   actually delivered it.
3. Figure 17: one node's RTT samples over time — the first fetch comes from
   far away, later ones from nearby.
4. Figure 18: the CDF over nodes of RTT1/RTT2 (first fetch vs. second).

The experiment runs against an existing scenario world's CDN, but with its
own DNS policy: each node's resolver gets its own RTT-derived data-center
ranking, reproducing "nodes were carefully selected so that most of them
had different preferred data centers".
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.active.planetlab import PlanetLabNode, build_planetlab_nodes
from repro.cdn.catalog import Resolution, Video
from repro.cdn.cluster import CdnSystem
from repro.cdn.selection import PreferredDcPolicy
from repro.geoloc.probing import RttProber
from repro.net.dns import AuthoritativeServer, LocalResolver
from repro.reporting.series import Cdf
from repro.sim.scenarios import ScenarioWorld
from repro.sim.seeding import derive_seed

#: The paper's sampling plan: every 30 minutes for 12 hours.
SAMPLE_INTERVAL_S = 1800.0
NUM_SAMPLES = 25


@dataclass
class NodeRttSeries:
    """One node's Figure 17 series.

    Attributes:
        node: The measuring node.
        times_s: Sample times.
        rtts_ms: RTT to the serving server at each sample.
        serving_dcs: Ground-truth serving data center per sample (tests
            only; the measured quantity is the RTT).
    """

    node: PlanetLabNode
    times_s: List[float] = field(default_factory=list)
    rtts_ms: List[float] = field(default_factory=list)
    serving_dcs: List[str] = field(default_factory=list)

    @property
    def first_to_second_ratio(self) -> float:
        """RTT1 / RTT2 — Figure 18's per-node statistic.

        Raises:
            ValueError: With fewer than two samples.
        """
        if len(self.rtts_ms) < 2:
            raise ValueError("need at least two samples")
        return self.rtts_ms[0] / self.rtts_ms[1]

    @property
    def settled_rtt_ms(self) -> float:
        """Median RTT over the post-first samples."""
        tail = sorted(self.rtts_ms[1:])
        if not tail:
            raise ValueError("need at least two samples")
        return tail[len(tail) // 2]


@dataclass
class TestVideoReport:
    """The full experiment outcome.

    Attributes:
        video_id: The uploaded test video.
        origin_dcs: Where the upload landed.
        series: Per-node RTT series, in node order.
    """

    video_id: str
    origin_dcs: List[str]
    series: List[NodeRttSeries]

    def ratio_cdf(self) -> Cdf:
        """Figure 18: the CDF of RTT1/RTT2 over nodes."""
        return Cdf(s.first_to_second_ratio for s in self.series)

    def most_improved(self) -> NodeRttSeries:
        """The node with the largest RTT1/RTT2 — the Figure 17 exemplar."""
        return max(self.series, key=lambda s: s.first_to_second_ratio)


class TestVideoExperiment:
    """Runs the upload-and-probe experiment against a world's CDN.

    Args:
        world: Any built scenario world (supplies the CDN and the physical
            internet).
        num_nodes: PlanetLab nodes to use.
        seed: Experiment seed (measurement noise, node ordering).
    """

    # Not a pytest test class despite the name.
    __test__ = False

    def __init__(self, world: ScenarioWorld, num_nodes: int = 45, seed: int = 5):
        self._world = world
        self._seed = seed
        self._nodes = build_planetlab_nodes(num_nodes)
        self._prober = RttProber(
            world.latency, probes=6, seed=derive_seed(seed, "testvideo", "prober")
        )
        self._rng = random.Random(derive_seed(seed, "testvideo", "serve"))

        # Experiment-specific DNS: per-node RTT-derived rankings over the
        # same data centers the production policy ranks.
        base_system = world.system
        rankings: Dict[str, Sequence[str]] = {}
        for node in self._nodes:
            def rtt_to(dc_id: str, node=node) -> float:
                dc = base_system.directory.get(dc_id)
                return world.latency.min_rtt_ms(node.site, dc.server_site(dc.servers[0]))

            rankings[f"pl/{node.name}"] = sorted(world.google_dc_ids, key=rtt_to)
        policy = PreferredDcPolicy(
            directory=base_system.directory,
            rankings=rankings,
            spill_probability=0.0,
            seed=derive_seed(seed, "testvideo", "policy"),
        )
        self._system = CdnSystem(
            catalog=base_system.catalog,
            directory=base_system.directory,
            placement=base_system.placement,
            policy=policy,
            redirection=base_system.redirection,
            latency=world.latency,
            num_shards=base_system.num_shards,
        )
        authoritative = AuthoritativeServer(mapper=policy)
        self._resolvers = {
            node.name: LocalResolver(resolver_id=f"pl/{node.name}", authoritative=authoritative)
            for node in self._nodes
        }

    @property
    def nodes(self) -> List[PlanetLabNode]:
        """The experiment nodes."""
        return list(self._nodes)

    def preferred_dc_of(self, node: PlanetLabNode) -> str:
        """The node's preferred data center under the experiment policy."""
        policy: PreferredDcPolicy = self._system.policy  # type: ignore[assignment]
        return policy.preferred_dc(f"pl/{node.name}")

    def upload_test_video(self) -> Video:
        """Upload (register) a cold test video and return it.

        Raises:
            ValueError: If no suitable tail video exists in the catalog.
        """
        catalog = self._system.catalog
        featured = {v.video_id for v in catalog.featured_videos}
        for rank in range(len(catalog) - 1, 0, -1):
            video = catalog.by_rank(rank)
            if video.video_id not in featured:
                self._system.placement.register_cold(video)
                return video
        raise ValueError("no tail video available for the experiment")

    def run(
        self,
        num_samples: int = NUM_SAMPLES,
        interval_s: float = SAMPLE_INTERVAL_S,
        start_s: float = 0.0,
    ) -> TestVideoReport:
        """Run the full protocol.

        Nodes are probed in a shuffled order inside every round, as 45
        independent machines would interleave; a node whose first fetch
        comes *after* a neighbour already pulled the video through may see
        no improvement at all — part of why the paper's Figure 18 has a
        large mass at ratio ≈ 1.

        Returns:
            The :class:`TestVideoReport`.
        """
        if num_samples < 2:
            raise ValueError("need at least 2 samples for RTT1/RTT2")
        video = self.upload_test_video()
        origins = self._system.placement.origins(video)
        series = {
            node.name: NodeRttSeries(node=node) for node in self._nodes
        }
        order = list(self._nodes)
        for sample in range(num_samples):
            t = start_s + sample * interval_s
            self._rng.shuffle(order)
            for node in order:
                outcome = self._system.handle_request(
                    client_ip=node.ip,
                    client_site=node.site,
                    resolver=self._resolvers[node.name],
                    video=video,
                    resolution=Resolution.R360,
                    t_s=t,
                    rng=self._rng,
                    watch_fraction=1.0,
                )
                serving = outcome.decision.serving_server
                rtt = self._prober.measure_ms(node.site, self._system.server_site(serving))
                record = series[node.name]
                record.times_s.append(t)
                record.rtts_ms.append(rtt)
                record.serving_dcs.append(outcome.served_dc_id)
        return TestVideoReport(
            video_id=video.video_id,
            origin_dcs=origins,
            series=[series[node.name] for node in self._nodes],
        )
