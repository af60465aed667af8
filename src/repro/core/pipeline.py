"""End-to-end study pipeline.

Orchestrates the paper's full methodology over a set of collected datasets:

1. Table I traffic summaries (raw traces).
2. whois / Table II AS breakdown, then the Google-focus filter (Section IV).
3. Active RTT campaigns from every vantage point (Figure 2).
4. CBG calibration and server→data-center clustering over the union of all
   datasets' servers (Section V; Figure 3, Table III).
5. Per-dataset session building and preferred-data-center analysis
   (Figures 4-10).
6. The cause analyses: DNS load balancing (Figure 11), subnet divergence
   (Figure 12), hot spots and cold content (Figures 13-16).

Every step is a cached property/method, so benchmarks can time one step
while sharing its prerequisites — the way the authors analysed one set of
traces many times.

The pipeline's inputs are measurement-shaped only: flow datasets, a whois
registry, the physical ability to ping an IP.  Simulator ground truth never
enters.

It is the one pipeline class for both ingestion modes.  A batch study folds
each materialised week as one batch; ``repro study --stream`` folds each
week window by window as it is simulated (:mod:`repro.stream.study`) and
hands the sealed folds in through ``folds``.  Everything downstream of the
folds is the same code either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro import obs
from repro.core import asmap, flows, geography, nonpreferred
from repro.core import preferred as preferred_mod
from repro.core import sessions as sessions_mod
from repro.core.folds import HourlyShareAccumulator, TrafficAccumulator
from repro.core.summary import DatasetSummary
from repro.faults import report as degradation
from repro.geo.landmarks import LandmarkSet, generate_landmarks
from repro.geoloc.cbg import CbgGeolocator
from repro.geoloc.clustering import ServerMap, cluster_servers
from repro.geoloc.probing import CampaignJob, RttProber, run_campaigns
from repro.net.latency import Site
from repro.reporting.series import Cdf
from repro.sim.week import SimulationResult
from repro.sim.seeding import derive_seed
from repro.trace.columnar import FlowTable
from repro.trace.records import Dataset

if TYPE_CHECKING:
    # Only the full report and the figures run these analyses; each
    # method imports its module, so the summary study never loads them.
    from repro.core.hotspots import HotServerReport, HotVideoSeries, ServerLoadReport
    from repro.core.loadbalance import LoadBalanceReport
    from repro.core.peering import PeeringReport
    from repro.core.subnets import SubnetShare


#: Pings per RTT measurement; the minimum is kept.
_PROBES_PER_MEASUREMENT = 6


@dataclass
class StudyResults:
    """A bundle of everything the pipeline regenerates (for examples)."""

    summaries: Dict[str, DatasetSummary]
    as_breakdowns: Dict[str, asmap.AsBreakdown]
    table3_rows: List[geography.ContinentRow]
    preferred_reports: Dict[str, preferred_mod.PreferredDcReport]
    nonpreferred_fractions: Dict[str, float]
    one_flow: Dict[str, nonpreferred.OneFlowBreakdown]
    two_flow: Dict[str, Dict[nonpreferred.SessionPattern, float]]


class StudyPipeline:
    """The paper's analysis pipeline over a set of simulated datasets.

    Tables I-II, the focus list, the preferred-DC reports, Figure 9 and
    the RTT campaigns' server lists read two per-dataset folds,
    :attr:`traffic` and :attr:`hourly`: each dataset's table folded as
    one batch, or the folds a stream sealed window by window.

    Args:
        results: Mapping dataset name → simulation result: its ``world``
            (for active measurements) and its ``dataset``, which only the
            flow-level analyses (sessions, Figures 4-6 and 10-16) read.
        landmark_count: Landmark budget for CBG; ``None`` uses the paper's
            full 215-node set.  Tests pass a smaller number.
        seed: Measurement-noise seed (independent of the worlds' seeds).
        folds: Per-dataset ``(traffic, hourly)`` folds already sealed
            over a streamed week; ``None`` folds each ``dataset`` here.
    """

    def __init__(
        self,
        results: Mapping[str, SimulationResult],
        landmark_count: Optional[int] = None,
        seed: int = 11,
        folds: Optional[
            Mapping[str, Tuple[TrafficAccumulator, HourlyShareAccumulator]]
        ] = None,
    ):
        if not results:
            raise ValueError("pipeline needs at least one dataset")
        self._results = dict(results)
        self._landmark_count = landmark_count
        self._seed = seed
        self._folds = folds

    # ------------------------------------------------------------ plumbing

    @property
    def dataset_names(self) -> List[str]:
        """Dataset names in insertion order."""
        return list(self._results)

    def dataset(self, name: str) -> Dataset:
        """One dataset's trace: what every flow-level view reads.

        Raises:
            ValueError: On a pipeline built from streamed ``folds``, which
                holds no flow table.
        """
        if self._folds is not None:
            raise ValueError(
                "a streamed study holds only its folds; the flow-level views "
                "(sessions, session_histogram, focus_tables, flow_size_cdf, "
                "gap_sensitivity, peering and Figures 10-16) need the batch path"
            )
        return self._results[name].dataset

    @cached_property
    def _site_of_ip(self) -> Callable[[int], Optional[Site]]:
        """Physical reachability: IP → pingable site, across all worlds."""
        worlds = [r.world for r in self._results.values()]

        def site_of_ip(ip: int) -> Optional[Site]:
            for world in worlds:
                site = world.site_of_server_ip(ip)
                if site is not None:
                    return site
            return None

        return site_of_ip

    def site_of_ip(self, ip: int) -> Optional[Site]:
        """Public probing hook: the pingable site behind a server address."""
        return self._site_of_ip(ip)

    @cached_property
    def _latency(self):
        # All worlds share one physical internet (same latency seed); any
        # world's model measures it.
        return next(iter(self._results.values())).world.latency

    def _prober(self, label: str) -> RttProber:
        return RttProber(
            self._latency,
            probes=_PROBES_PER_MEASUREMENT,
            seed=derive_seed(self._seed, "prober", label),
        )

    # ------------------------------------------------------------- folds

    @cached_property
    def traffic(self) -> Dict[str, TrafficAccumulator]:
        """Per-dataset traffic folds (Tables I-II, focus, Section VI-B)."""
        if self._folds is not None:
            return {name: traffic for name, (traffic, _) in self._folds.items()}
        return {
            name: TrafficAccumulator(r.dataset.table)
            for name, r in self._results.items()
        }

    @cached_property
    def hourly(self) -> Dict[str, HourlyShareAccumulator]:
        """Per-dataset hourly video-flow folds (Figure 9 only)."""
        if self._folds is not None:
            return {name: hourly for name, (_, hourly) in self._folds.items()}
        return {
            name: HourlyShareAccumulator(r.dataset.table)
            for name, r in self._results.items()
        }

    # --------------------------------------------------------- T1, T2, focus

    @cached_property
    def summaries(self) -> Dict[str, DatasetSummary]:
        """Table I rows."""
        return {name: self.traffic[name].summary(name) for name in self._results}

    @cached_property
    def as_breakdowns(self) -> Dict[str, asmap.AsBreakdown]:
        """Table II rows."""
        return {
            name: self.traffic[name].as_breakdown(
                name, r.world.vantage.asn, r.world.registry
            )
            for name, r in self._results.items()
        }

    @cached_property
    def focus_ips(self) -> Dict[str, List[int]]:
        """Per-dataset Google-focus server lists (Section IV).

        "We only focus on accesses to video servers located in the Google
        AS.  For the EU2 dataset, we include accesses to the data center
        located inside the corresponding ISP."
        """
        return {
            name: self.traffic[name].focus_ips(r.world.vantage.asn, r.world.registry)
            for name, r in self._results.items()
        }

    @cached_property
    def focus_tables(self) -> Dict[str, FlowTable]:
        """Per-dataset flow tables restricted to the focus servers.

        Each selects its dataset's rows with a ``dst_ip`` mask.  Every
        analysis method below hands these to the core modules, so the
        columnar work is done once per dataset, not once per figure.
        """
        out: Dict[str, FlowTable] = {}
        for name in self._results:
            table = self.dataset(name).table
            keep = np.isin(table.columns().dst_ip, self.focus_ips[name])
            out[name] = table.select(keep)
        return out

    # ------------------------------------------------------------------- F2

    @cached_property
    def rtt_campaigns(self) -> Dict[str, Dict[int, float]]:
        """Figure 2: per-dataset server RTT campaigns.

        One campaign per vantage point, fanned out
        (:func:`~repro.geoloc.probing.run_campaigns`).
        Each job carries its own derived-seed prober and a pre-resolved
        target map, so it measures exactly what an in-process run would:
        every reachable server of its dataset, in sorted-address order.
        """
        site_of_ip = self._site_of_ip
        jobs: List[CampaignJob] = []
        for name, result in self._results.items():
            targets: Dict[object, Site] = {}
            for ip in self.traffic[name].server_ips():
                site = site_of_ip(ip)
                if site is not None:
                    targets[ip] = site
            jobs.append(
                CampaignJob(
                    label=f"campaign/{name}",
                    latency=self._latency,
                    origin=result.world.vantage.probe_site,
                    targets=targets,
                    probes=_PROBES_PER_MEASUREMENT,
                    seed=derive_seed(self._seed, "prober", f"campaign/{name}"),
                )
            )
        with obs.span("pipeline/rtt_campaigns", campaigns=len(jobs)):
            measured = run_campaigns(jobs)
        degradation.stage_completed("pipeline/rtt_campaigns")
        return dict(zip(self._results, measured))

    def rtt_cdf(self, name: str) -> Cdf:
        """One Figure 2 curve."""
        return geography.rtt_cdf(self.rtt_campaigns[name])

    # ------------------------------------------------------- CBG (F3, T3)

    @cached_property
    def landmarks(self) -> LandmarkSet:
        """The CBG landmark population."""
        full = generate_landmarks(seed=derive_seed(self._seed, "landmarks"))
        if self._landmark_count is not None and self._landmark_count < len(full):
            return full.subsample(self._landmark_count, seed=self._seed)
        return full

    @cached_property
    def geolocator(self) -> CbgGeolocator:
        """The calibrated CBG instance."""
        return CbgGeolocator(self.landmarks, self._prober("cbg"))

    @cached_property
    def server_map(self) -> ServerMap:
        """CBG clustering over the union of all datasets' focus servers."""
        union: List[int] = sorted(
            {ip for ips in self.focus_ips.values() for ip in ips}
        )
        site_of_ip = self._site_of_ip
        # Calibrated here, under its own span, not inside the target loop.
        geolocator = self.geolocator

        def geolocate(ip: int):
            site = site_of_ip(ip)
            if site is None:
                raise LookupError(f"cannot reach server {ip} for probing")
            return geolocator.geolocate_target(site)

        with obs.span("pipeline/server_map", servers=len(union), layer="measure.cbg.geolocate"):
            server_map = cluster_servers(union, geolocate)
        degradation.stage_completed("pipeline/server_map")
        return server_map

    @cached_property
    def fig3_cdfs(self) -> Dict[str, Cdf]:
        """Figure 3: confidence-radius CDFs (US vs Europe)."""
        return geography.confidence_radius_cdfs(self.server_map)

    @cached_property
    def table3_rows(self) -> List[geography.ContinentRow]:
        """Table III rows."""
        return [
            geography.ContinentRow(
                name=name,
                counts=self.server_map.continent_counts(self.focus_ips[name]),
            )
            for name in self.dataset_names
        ]

    # ------------------------------------------------------- F4, F5, F6

    def flow_size_cdf(self, name: str) -> Cdf:
        """One Figure 4 curve."""
        return flows.flow_size_cdf(self.dataset(name).table)

    def gap_sensitivity(self, name: str) -> Dict[float, Dict[str, float]]:
        """Figure 5: flows-per-session vs. the gap T."""
        with obs.span("analysis/gap_sweep", layer="analysis"):
            return sessions_mod.gap_sensitivity(self.focus_tables[name])

    @cached_property
    def sessions(self) -> Dict[str, sessions_mod.Sessions]:
        """Per-dataset video sessions at the paper's gap T (1 s)."""
        with obs.span("analysis/sessions", layer="analysis"):
            built = {
                name: sessions_mod.build_sessions(self.focus_tables[name])
                for name in self._results
            }
        degradation.stage_completed("pipeline/sessions")
        return built

    def session_histogram(self, name: str) -> Dict[str, float]:
        """One Figure 6 bar group."""
        return sessions_mod.flows_per_session_histogram(self.sessions[name])

    # ------------------------------------------------------- F7, F8

    @cached_property
    def preferred_reports(self) -> Dict[str, preferred_mod.PreferredDcReport]:
        """Per-dataset preferred-data-center reports."""
        with obs.span("analysis/preferred", layer="analysis"):
            reports: Dict[str, preferred_mod.PreferredDcReport] = {}
            for name, result in self._results.items():
                reports[name] = self.traffic[name].preferred_report(
                    name,
                    self.server_map,
                    self.rtt_campaigns[name],
                    result.world.vantage.city.point,
                    focus_ips=self.focus_ips[name],
                )
        degradation.stage_completed("pipeline/preferred")
        return reports

    # ------------------------------------------------------- F9, F10

    def fig9_cdf(self, name: str, min_flows_per_hour: int = 5) -> Cdf:
        """One Figure 9 curve."""
        return self.hourly[name].cdf(
            self.preferred_reports[name],
            self.server_map,
            int(self._results[name].world.duration_s // 3600.0),
            focus_ips=self.focus_ips[name],
            min_flows_per_hour=min_flows_per_hour,
        )

    def nonpreferred_fraction(self, name: str) -> float:
        """Overall non-preferred video-flow share for one dataset."""
        return self.traffic[name].nonpreferred_fraction(
            self.preferred_reports[name], self.server_map, self.focus_ips[name]
        )

    def one_flow_breakdown(self, name: str) -> nonpreferred.OneFlowBreakdown:
        """One Figure 10(a) bar."""
        return nonpreferred.one_flow_breakdown(
            self.sessions[name], self.preferred_reports[name], self.server_map
        )

    def two_flow_breakdown(self, name: str) -> Dict[nonpreferred.SessionPattern, float]:
        """One Figure 10(b) bar."""
        return nonpreferred.two_flow_breakdown(
            self.sessions[name], self.preferred_reports[name], self.server_map
        )

    def dns_vs_redirection(self, name: str) -> Dict[str, float]:
        """Cause shares of non-preferred video flows (Section VI-C)."""
        return nonpreferred.dns_vs_redirection_shares(
            self.sessions[name], self.preferred_reports[name], self.server_map
        )

    def session_verdicts(self, name: str) -> List[Optional[str]]:
        """Blind per-session attribution verdicts for one dataset.

        In :attr:`sessions` ``[name]`` order; what the ground-truth
        scorer (:mod:`repro.eval.attribution`) grades.  Uses measurement
        data only — simulator ground truth never enters the pipeline.
        """
        return nonpreferred.session_verdicts(
            self.sessions[name], self.preferred_reports[name], self.server_map
        )

    def multi_flow_breakdown(
        self, name: str, min_flows: int = 3
    ) -> nonpreferred.MultiFlowBreakdown:
        """Sessions with more than two flows (Section VI-C's closing note)."""
        return nonpreferred.multi_flow_breakdown(
            self.sessions[name],
            self.preferred_reports[name],
            self.server_map,
            min_flows=min_flows,
        )

    def peering(self, name: str) -> PeeringReport:
        """Peering-traffic breakdown for one dataset (capacity planning)."""
        from repro.core import peering as peering_mod

        return peering_mod.analyze_peering(
            self.dataset(name), self._results[name].world.registry
        )

    # ---------------------------------------------------- F11, F12

    def load_balance(self, name: str) -> LoadBalanceReport:
        """One dataset's Figure 11 panels."""
        from repro.core import loadbalance

        return loadbalance.analyze_load_balance(
            self.focus_tables[name],
            self.preferred_reports[name],
            self.server_map,
            self.dataset(name).num_hours,
        )

    def subnet_shares(self, name: str) -> List[SubnetShare]:
        """One dataset's Figure 12 bars."""
        from repro.core import subnets as subnets_mod

        return subnets_mod.subnet_shares(
            self.dataset(name),
            self.preferred_reports[name],
            self.server_map,
            table=self.focus_tables[name],
        )

    # ------------------------------------------------- F13, F14, F15, F16

    def fig13_cdf(self, name: str) -> Cdf:
        """One Figure 13 curve."""
        from repro.core import hotspots

        with obs.span("analysis/hotspots", layer="analysis"):
            return hotspots.nonpreferred_video_cdf(
                self.focus_tables[name], self.preferred_reports[name], self.server_map
            )

    def hot_videos(self, name: str, top_k: int = 4) -> List[HotVideoSeries]:
        """Figure 14's hot-video time lines."""
        from repro.core import hotspots

        with obs.span("analysis/hotspots", layer="analysis"):
            return hotspots.top_nonpreferred_videos(
                self.focus_tables[name],
                self.preferred_reports[name],
                self.server_map,
                self.dataset(name).num_hours,
                top_k=top_k,
            )

    def server_load(self, name: str) -> ServerLoadReport:
        """Figure 15's load panels."""
        from repro.core import hotspots

        with obs.span("analysis/hotspots", layer="analysis"):
            return hotspots.preferred_server_load(
                self.focus_tables[name],
                self.preferred_reports[name],
                self.server_map,
                self.dataset(name).num_hours,
            )

    def hot_server(self, name: str, video_id: Optional[str] = None) -> HotServerReport:
        """Figure 16: the hot video's server, with session-pattern split.

        Args:
            name: Dataset name.
            video_id: The video to follow; defaults to the dataset's top
                non-preferred video ("video1" in the paper).
        """
        from repro.core import hotspots

        if video_id is None:
            video_id = self.hot_videos(name, top_k=1)[0].video_id
        return hotspots.hot_server_sessions(
            self.sessions[name],
            video_id,
            self.preferred_reports[name],
            self.server_map,
            self.dataset(name).num_hours,
        )

    # ---------------------------------------------------------------- bundle

    def run(self) -> StudyResults:
        """Compute the headline results for every dataset."""
        return StudyResults(
            summaries=self.summaries,
            as_breakdowns=self.as_breakdowns,
            table3_rows=self.table3_rows,
            preferred_reports=self.preferred_reports,
            nonpreferred_fractions={
                name: self.nonpreferred_fraction(name) for name in self._results
            },
            one_flow={name: self.one_flow_breakdown(name) for name in self._results},
            two_flow={name: self.two_flow_breakdown(name) for name in self._results},
        )
