"""Content placement across data centers.

Implements the availability structure the paper infers in Section VII-C:

* the popular head of the catalog is replicated to every data center;
* cold-tail videos start out resident at a single *origin* data center;
* when a data center takes a request for a video it does not hold, the
  request is redirected to a holder **and the video is pulled through** into
  the requesting data center — which is why the paper's PlanetLab experiment
  sees only the *first* access of a cold video served from far away
  (Figures 17, 18) and why "when videos were accessed more than once, only
  the first access was redirected" (Section VII-C).
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Sequence, Set

from repro.cdn.catalog import Video, VideoCatalog, check_mass_fraction


def check_placement_args(
    replicated_mass: float = 0.75,
    regional_presence_prob: float = 0.8,
    cache_capacity: Optional[int] = None,
) -> None:
    """The range checks :class:`ContentPlacement` runs on its arguments."""
    check_mass_fraction(replicated_mass, "replicated_mass")
    if not 0.0 <= regional_presence_prob < 1.0:
        raise ValueError(
            f"regional_presence_prob must be in [0, 1), got {regional_presence_prob!r}"
        )
    if cache_capacity is not None and cache_capacity < 1:
        raise ValueError(f"cache_capacity must be >= 1 (or None), got {cache_capacity!r}")


class ContentPlacement:
    """Tracks which data centers hold which videos.

    Args:
        catalog: The video catalog.
        dc_ids: All data-center identifiers, in a stable order.
        replicated_mass: Fraction of request probability mass whose videos
            are replicated everywhere (the popular head).
        origin_count: Number of origin copies a cold video starts with.
        regional_presence_prob: Chance that a tail video is *already*
            resident at any given data center when our trace starts.  The
            monitored PoP sees only a sliver of each data center's demand;
            the rest of the region has usually pulled a merely-lukewarm
            video through before our clients ask for it.  Only the truly
            cold remainder produces first-access redirects (Section VII-C).
        cache_capacity: Optional cap on the number of *pulled-through* tail
            videos a data center retains; beyond it the least recently
            pulled is evicted (and may miss again later).  ``None`` models
            an effectively infinite edge cache over one trace week.
            Origin copies are never evicted.
    """

    #: ``"|<dc_id>"`` per data center, encoded: the tail-residency hash
    #: input after the video ID.  Built on first use.
    _suffixes: Optional[List[bytes]] = None

    def __init__(
        self,
        catalog: VideoCatalog,
        dc_ids: Sequence[str],
        replicated_mass: float = 0.75,
        origin_count: int = 1,
        regional_presence_prob: float = 0.8,
        cache_capacity: Optional[int] = None,
    ):
        if not dc_ids:
            raise ValueError("placement needs at least one data center")
        if origin_count < 1:
            raise ValueError("origin_count must be >= 1")
        check_placement_args(replicated_mass, regional_presence_prob, cache_capacity)
        self._catalog = catalog
        self._dc_ids: List[str] = list(dc_ids)
        self._head_ranks = catalog.popularity_cutoff_rank(replicated_mass)
        # Featured videos get replicated like head content: YouTube pushes
        # the day's feature everywhere ahead of time.
        self._forced_global: Set[str] = {v.video_id for v in catalog.featured_videos}
        # Lazily-populated residency for tail videos: video_id -> set of DCs.
        self._tail_holders: Dict[str, Set[str]] = {}
        self._origin_count = origin_count
        self._regional_presence_prob = regional_presence_prob
        self._cache_capacity = cache_capacity
        # Per-DC LRU of pulled-through video ids (insertion-ordered dicts).
        self._pulled: Dict[str, Dict[str, None]] = {dc_id: {} for dc_id in self._dc_ids}
        self.pull_throughs = 0
        self.evictions = 0

    def _is_head(self, video: Video) -> bool:
        return video.rank < self._head_ranks or video.video_id in self._forced_global

    def _holders_of_tail(self, video: Video) -> Set[str]:
        holders = self._tail_holders.get(video.video_id)
        if holders is None:
            holders = set()
            n = len(self._dc_ids)
            base = zlib.crc32(video.video_id.encode())
            for k in range(self._origin_count):
                holders.add(self._dc_ids[(base + k * 7919) % n])
            threshold = int(self._regional_presence_prob * 1_000_000)
            suffixes = self._suffixes
            if suffixes is None:
                suffixes = self._suffixes = [f"|{dc_id}".encode() for dc_id in self._dc_ids]
            for dc_id, suffix in zip(self._dc_ids, suffixes):
                if dc_id in holders:
                    continue
                # crc32 of "<video_id>|<dc_id>", continued from the ID's own crc32.
                if zlib.crc32(suffix, base) % 1_000_000 < threshold:
                    holders.add(dc_id)
            self._tail_holders[video.video_id] = holders
        return holders

    def is_resident(self, dc_id: str, video: Video) -> bool:
        """Whether the data center currently holds the video."""
        if self._is_head(video):
            return True
        return dc_id in self._holders_of_tail(video)

    def holders(self, video: Video) -> List[str]:
        """All data centers currently holding the video (stable order)."""
        if self._is_head(video):
            return list(self._dc_ids)
        tail = self._holders_of_tail(video)
        return [dc_id for dc_id in self._dc_ids if dc_id in tail]

    def pull_through(self, dc_id: str, video: Video) -> None:
        """Record that ``dc_id`` fetched and cached the video.

        No-op for head content (already everywhere).

        Raises:
            KeyError: If the data center is unknown to the placement.
        """
        if dc_id not in self._dc_ids:
            raise KeyError(f"unknown data center: {dc_id!r}")
        if self._is_head(video):
            return
        holders = self._holders_of_tail(video)
        if dc_id not in holders:
            holders.add(dc_id)
            self.pull_throughs += 1
            if self._cache_capacity is not None:
                lru = self._pulled[dc_id]
                lru[video.video_id] = None
                while len(lru) > self._cache_capacity:
                    victim_id = next(iter(lru))
                    del lru[victim_id]
                    victim_holders = self._tail_holders.get(victim_id)
                    if victim_holders is not None:
                        victim_holders.discard(dc_id)
                    self.evictions += 1

    def origins(self, video: Video) -> List[str]:
        """The video's canonical origin data centers (upload targets).

        For head content this is meaningless (it lives everywhere), so the
        hash-derived origins are returned for consistency; for tail content
        these are the copies that exist regardless of cache churn.
        """
        n = len(self._dc_ids)
        base = zlib.crc32(video.video_id.encode())
        return sorted({self._dc_ids[(base + k * 7919) % n] for k in range(self._origin_count)})

    def register_cold(self, video: Video) -> List[str]:
        """Mark a video as freshly uploaded: origin copies only.

        Used by the active test-video experiment (Section VII-C): a video
        uploaded minutes ago has no regional presence anywhere, so its first
        fetch from each region is redirected to the origin.

        Returns:
            The origin data centers holding the fresh video.

        Raises:
            ValueError: If the video is head content (always replicated).
        """
        if self._is_head(video):
            raise ValueError(f"video {video.video_id} is head content; cannot be cold")
        holders: Set[str] = set()
        n = len(self._dc_ids)
        base = zlib.crc32(video.video_id.encode())
        for k in range(self._origin_count):
            holders.add(self._dc_ids[(base + k * 7919) % n])
        self._tail_holders[video.video_id] = holders
        return sorted(holders)

    @property
    def dc_ids(self) -> List[str]:
        """Every data center the placement tracks, in its stable order."""
        return list(self._dc_ids)
