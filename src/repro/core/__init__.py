"""The paper's analysis pipeline — the primary contribution.

Everything in this package consumes only what the authors had: flow-level
logs (:mod:`repro.trace`), active RTT measurements, whois lookups and CBG
results.  Nothing reads the simulator's ground truth, so every regenerated
table and figure is a genuine inference test of the methodology.

Module map (paper section → module):

* §VI-A flow types and sessions → :mod:`repro.core.flows`,
  :mod:`repro.core.sessions`
* the traffic folds that Tables I-II, §VI-B and Figure 9 read, in batch
  and streamed alike → :mod:`repro.core.folds`
* §III-B Table I → :mod:`repro.core.summary`
* §IV Table II → :mod:`repro.core.asmap`
* §V Table III, Figures 2-3 → :mod:`repro.core.geography`
* §VI-B Figures 7-9 → :mod:`repro.core.preferred`,
  :mod:`repro.core.nonpreferred`
* §VI-C Figure 10 → :mod:`repro.core.nonpreferred`
* §VII-A Figure 11 → :mod:`repro.core.loadbalance`
* §VII-B Figure 12 → :mod:`repro.core.subnets`
* §VII-C Figures 13-16 → :mod:`repro.core.hotspots`
* end-to-end orchestration → :mod:`repro.core.pipeline`
"""

from repro.core.flows import (
    CONTROL_FLOW_THRESHOLD_BYTES,
    FlowClasses,
    classify_flows,
    flow_size_cdf,
    is_video_flow,
)
from repro.core.sessions import (
    Session,
    build_sessions,
    flows_per_session_histogram,
    multi_flow_fraction,
)
from repro.core.summary import DatasetSummary, summarize
from repro.core.asmap import AsBreakdown, breakdown_by_as, google_focus_ips
from repro.core.preferred import DataCenterView, PreferredDcReport, analyze_preferred
from repro.core.nonpreferred import (
    MultiFlowBreakdown,
    SessionPattern,
    hourly_nonpreferred_cdf,
    multi_flow_breakdown,
    one_flow_breakdown,
    two_flow_breakdown,
)
from repro.core.characterize import TraceProfile, characterize
from repro.core.evolution import EpochDiff, compare_epochs
from repro.core.peering import AsTraffic, PeeringReport, analyze_peering
from repro.core.confidence import ConfidenceInterval, bootstrap_interval, fraction_interval
from repro.core.report import render_study_report
from repro.core.pipeline import StudyPipeline, StudyResults

__all__ = [
    "CONTROL_FLOW_THRESHOLD_BYTES",
    "FlowClasses",
    "classify_flows",
    "flow_size_cdf",
    "is_video_flow",
    "Session",
    "build_sessions",
    "flows_per_session_histogram",
    "multi_flow_fraction",
    "DatasetSummary",
    "summarize",
    "AsBreakdown",
    "breakdown_by_as",
    "google_focus_ips",
    "DataCenterView",
    "PreferredDcReport",
    "analyze_preferred",
    "MultiFlowBreakdown",
    "SessionPattern",
    "hourly_nonpreferred_cdf",
    "multi_flow_breakdown",
    "one_flow_breakdown",
    "two_flow_breakdown",
    "TraceProfile",
    "characterize",
    "EpochDiff",
    "compare_epochs",
    "AsTraffic",
    "PeeringReport",
    "analyze_peering",
    "ConfidenceInterval",
    "bootstrap_interval",
    "fraction_interval",
    "render_study_report",
    "StudyPipeline",
    "StudyResults",
]
