"""Online hot-spot and load-balance detectors over sealed windows.

The batch analyses in :mod:`repro.core.hotspots` and
:mod:`repro.core.loadbalance` need the whole trace (Figures 11, 13-16);
these detectors are their incremental siblings for the streaming path:
they fold each sealed :class:`~repro.stream.events.StreamWindow` into
per-entity running state and raise events *as the stream progresses*.

* :class:`HotSpotDetector` flags "video of the day" spikes — a window
  whose per-video flow count jumps well above that video's EWMA baseline
  (the Section VII-C overload precondition for application-layer
  redirection).
* :class:`LoadBalanceDetector` watches how concentrated each window's
  bytes are on its single busiest server; sustained low concentration is
  the DNS-level load-spreading signature of Section VII-A.

Both are diagnostics layered on the stream — they never touch the study
tables, so the byte-parity guarantee is unaffected.  Memory is bounded
by distinct videos / windows, never by the flow count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.stream.events import StreamWindow
from repro.trace.columnar import group_sum_int64


@dataclass(frozen=True)
class HotSpotEvent:
    """One detected per-video request spike.

    Attributes:
        window_index: Window the spike happened in.
        video_id: The spiking video.
        flows: Its flow count in that window.
        baseline: Its EWMA flow count before the window.
    """

    window_index: int
    video_id: str
    flows: int
    baseline: float


class HotSpotDetector:
    """Flags windows where one video's demand jumps off its baseline.

    A video spikes when its window flow count reaches ``min_flows`` and
    exceeds ``spike_factor`` times its EWMA baseline (videos seen for the
    first time only set their baseline — a debut is not a spike).

    Args:
        min_flows: Absolute per-window floor below which nothing counts.
        spike_factor: Multiple of the baseline that constitutes a spike.
        ewma_alpha: Baseline smoothing factor in (0, 1].

    Attributes:
        events: Every spike detected so far, in detection order.
    """

    def __init__(
        self,
        min_flows: int = 16,
        spike_factor: float = 4.0,
        ewma_alpha: float = 0.3,
    ):
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if spike_factor <= 1.0:
            raise ValueError("spike_factor must exceed 1")
        self._min_flows = min_flows
        self._spike_factor = spike_factor
        self._alpha = ewma_alpha
        self._baseline: Dict[str, float] = {}
        self.events: List[HotSpotEvent] = []

    def observe_window(self, window: StreamWindow) -> List[HotSpotEvent]:
        """Fold one sealed window in; return the spikes it triggered."""
        counts = _video_counts(window)
        fresh: List[HotSpotEvent] = []
        for video_id in sorted(counts):
            count = counts[video_id]
            baseline = self._baseline.get(video_id)
            if (
                baseline is not None
                and count >= self._min_flows
                and count >= self._spike_factor * baseline
            ):
                fresh.append(
                    HotSpotEvent(
                        window_index=window.index,
                        video_id=video_id,
                        flows=count,
                        baseline=baseline,
                    )
                )
            if baseline is None:
                self._baseline[video_id] = float(count)
            else:
                self._baseline[video_id] = (
                    self._alpha * count + (1.0 - self._alpha) * baseline
                )
        self.events.extend(fresh)
        return fresh


def _video_counts(window: StreamWindow) -> Dict[str, int]:
    """Per-video flow counts for one window, keyed in first-flow order."""
    if len(window) == 0:
        return {}
    cols = window.table.columns()
    codes, first, counts = np.unique(cols.video_code, return_index=True, return_counts=True)
    video_ids = cols.video_ids.tolist()  # built-in str, not numpy str_
    return {
        video_ids[codes[j]]: int(counts[j])
        for j in np.argsort(first, kind="stable").tolist()
    }


@dataclass(frozen=True)
class LoadBalanceSample:
    """One window's byte-concentration measurement.

    Attributes:
        window_index: The window.
        top_share: Byte share of the window's single busiest server.
        num_servers: Distinct servers active in the window.
    """

    window_index: int
    top_share: float
    num_servers: int


class LoadBalanceDetector:
    """Tracks per-window byte concentration on the busiest server.

    A window is *spread* when its busiest server carries less than
    ``spread_threshold`` of its bytes — many servers sharing load, the
    adaptive DNS-balancing signature.  Empty windows are skipped.

    Args:
        spread_threshold: Top-server share below which a window counts
            as spread.

    Attributes:
        samples: One :class:`LoadBalanceSample` per non-empty window.
        spread_windows: Windows classified as spread so far.
    """

    def __init__(self, spread_threshold: float = 0.5):
        if not 0.0 < spread_threshold <= 1.0:
            raise ValueError("spread_threshold must be in (0, 1]")
        self._threshold = spread_threshold
        self.samples: List[LoadBalanceSample] = []
        self.spread_windows = 0

    def observe_window(self, window: StreamWindow) -> None:
        """Fold one sealed window in."""
        if len(window) == 0:
            return
        top_bytes, total_bytes, num_servers = _top_server_bytes(window)
        share = top_bytes / total_bytes if total_bytes else 0.0
        self.samples.append(
            LoadBalanceSample(
                window_index=window.index,
                top_share=share,
                num_servers=num_servers,
            )
        )
        if share < self._threshold:
            self.spread_windows += 1

    @property
    def spread_fraction(self) -> float:
        """Fraction of non-empty windows classified as spread."""
        if not self.samples:
            return 0.0
        return self.spread_windows / len(self.samples)


def _top_server_bytes(window: StreamWindow) -> Tuple[int, int, int]:
    """(busiest server's bytes, total bytes, distinct servers) for a window."""
    cols = window.table.columns()
    uniq, inverse = np.unique(cols.dst_ip, return_inverse=True)
    per_server = group_sum_int64(inverse, cols.num_bytes, len(uniq))
    return int(per_server.max()), int(cols.num_bytes.sum()), len(uniq)
