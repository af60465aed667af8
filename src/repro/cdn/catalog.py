"""Video catalog: identifiers, popularity, sizes, featured videos.

The catalog drives the workload's popularity structure, which in turn drives
two of the paper's four non-preferred-access causes: "video of the day"
hot-spots (Section VII-C, Figures 13-16) and the cold tail of videos accessed
exactly once (Figures 13, 17, 18).
"""

from __future__ import annotations

import enum
import math
import zlib
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

#: YouTube video identifiers are 11 characters of this alphabet.
_VIDEO_ID_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_"
VIDEO_ID_LENGTH = 11

#: Number of content-server name shards (``v<k>.lscache...``).  A video's
#: shard pins it to a specific server inside whichever data center DNS
#: picks, which is what lets one hot video overload one server (Figure 15).
DEFAULT_NUM_SHARDS = 192


class Resolution(enum.Enum):
    """Playback resolutions with their nominal stream bitrates (2010-era)."""

    R240 = 240
    R360 = 360
    R480 = 480
    R720 = 720

    @property
    def bitrate_kbps(self) -> int:
        """Nominal video bitrate for the resolution, kbit/s."""
        return _BITRATES_KBPS[self]

    @property
    def label(self) -> str:
        """Short label, e.g. ``"360p"``."""
        return f"{self.value}p"


_BITRATES_KBPS = {
    Resolution.R240: 300,
    Resolution.R360: 550,
    Resolution.R480: 900,
    Resolution.R720: 1800,
}


def encode_video_id(index: int) -> str:
    """Deterministically encode a catalog index as an 11-char YouTube-style ID.

    Bijective on the catalog range, so IDs are unique by construction.  A
    multiplicative scramble keeps consecutive indices from producing
    near-identical strings.
    """
    if index < 0:
        raise ValueError("index must be non-negative")
    # Scramble with a fixed odd multiplier modulo 64^11 (bijective).
    space = len(_VIDEO_ID_ALPHABET) ** VIDEO_ID_LENGTH
    scrambled = (index * 6364136223846793005 + 1442695040888963407) % space
    chars = []
    for _ in range(VIDEO_ID_LENGTH):
        scrambled, digit = divmod(scrambled, len(_VIDEO_ID_ALPHABET))
        chars.append(_VIDEO_ID_ALPHABET[digit])
    return "".join(chars)


def shard_of(video_id: str, num_shards: int = DEFAULT_NUM_SHARDS) -> int:
    """The name shard a video belongs to (stable hash of its ID)."""
    return zlib.crc32(video_id.encode()) % num_shards


def hostname_for_video(video_id: str, num_shards: int = DEFAULT_NUM_SHARDS) -> str:
    """The content-server hostname embedded in the video page (Section II).

    Mirrors the real system's sharded ``v<k>.lscache<m>.c.youtube.com``
    scheme: the name identifies a shard, and the authoritative DNS decides
    which data center's server for that shard the client should use.
    """
    return f"v{shard_of(video_id, num_shards)}.lscache.youtube.sim"


def check_catalog_args(featured_share: float) -> None:
    """The range check :class:`VideoCatalog` runs on ``featured_share``."""
    if not 0.0 <= featured_share < 1.0:
        raise ValueError(f"featured_share must be in [0, 1), got {featured_share!r}")


def check_mass_fraction(mass_fraction: float, name: str = "mass_fraction") -> None:
    """The range :meth:`VideoCatalog.popularity_cutoff_rank` accepts."""
    if not 0.0 < mass_fraction <= 1.0:
        raise ValueError(f"{name} must be in (0, 1], got {mass_fraction!r}")


@dataclass(frozen=True)
class Video:
    """One catalog entry.

    Attributes:
        video_id: 11-character identifier.
        rank: Popularity rank (0 = most popular).
        duration_s: Playback duration in seconds.
        weight: Unnormalised popularity weight (Zipf in rank).
    """

    video_id: str
    rank: int
    duration_s: float
    weight: float

    def size_bytes(self, resolution: Resolution) -> int:
        """Encoded file size at a given resolution."""
        return int(self.duration_s * resolution.bitrate_kbps * 1000 / 8)


class VideoCatalog:
    """A Zipf-popularity catalog with per-day featured videos.

    Popularity follows a Zipf-Mandelbrot law, ``weight ∝ (rank + q)^-α``.
    The shift ``q`` flattens the head the way a scaled-down catalog needs:
    with pure Zipf over a few thousand titles the single top video would
    absorb ~10 % of all requests, which no real edge trace shows; the shift
    keeps individual steady-state videos below a fraction of a percent so
    that only the *featured* mechanism can create true hot-spots.

    Args:
        size: Number of videos.
        zipf_alpha: Zipf exponent for the popularity weights.
        seed: Seed for durations and featured-video choice.
        num_featured_days: Number of simulated days that get a featured
            "video of the day" (the paper observes exactly-24-hour features).
        featured_share: Fraction of request traffic captured by the day's
            featured video during its feature window.
        mandelbrot_shift: The shift ``q``; defaults to ``size / 100``.
    """

    def __init__(
        self,
        size: int,
        zipf_alpha: float = 1.0,
        seed: int = 0,
        num_featured_days: int = 7,
        featured_share: float = 0.05,
        mandelbrot_shift: Optional[float] = None,
    ):
        if size < 10:
            raise ValueError("catalog needs at least 10 videos")
        check_catalog_args(featured_share)
        self._size = size
        self._alpha = zipf_alpha
        self._featured_share = featured_share
        rng = np.random.default_rng(seed)

        if mandelbrot_shift is None:
            mandelbrot_shift = max(4.0, size / 100.0)
        if mandelbrot_shift < 0:
            raise ValueError("mandelbrot_shift must be non-negative")
        self._shift = mandelbrot_shift
        ranks = np.arange(1, size + 1, dtype=np.float64)
        weights = (ranks + mandelbrot_shift) ** (-zipf_alpha)
        self._cumulative = np.cumsum(weights)
        self._total_weight = float(self._cumulative[-1])

        # Log-normal durations: median ~2 minutes, long tail, clipped to
        # [20 s, 45 min] — the 2010-era user-generated-content mix.
        durations = np.clip(rng.lognormal(mean=math.log(120.0), sigma=0.7, size=size), 20.0, 2700.0)
        self._videos: List[Video] = [
            Video(
                video_id=encode_video_id(i),
                rank=i,
                duration_s=float(durations[i]),
                weight=float(weights[i]),
            )
            for i in range(size)
        ]
        self._by_id: Dict[str, Video] = {v.video_id: v for v in self._videos}

        # Featured videos: drawn from deep in the tail, so that essentially
        # all of their traffic comes from the 24-hour feature window — the
        # paper's hot videos show day-long spikes and near-silence otherwise
        # (Figure 14).
        band_lo, band_hi = size // 3, max(size // 3 + num_featured_days, size // 2)
        picks = rng.choice(np.arange(band_lo, band_hi), size=num_featured_days, replace=False)
        self._featured_by_day: Dict[int, Video] = {
            day: self._videos[int(idx)] for day, idx in enumerate(sorted(picks))
        }

    def __len__(self) -> int:
        return self._size

    def __iter__(self):
        return iter(self._videos)

    def get(self, video_id: str) -> Video:
        """Video by ID.

        Raises:
            KeyError: For unknown IDs.
        """
        try:
            return self._by_id[video_id]
        except KeyError:
            raise KeyError(f"unknown video: {video_id!r}") from None

    def by_rank(self, rank: int) -> Video:
        """Video at a popularity rank (0 = hottest)."""
        return self._videos[rank]

    @property
    def featured_videos(self) -> List[Video]:
        """All featured videos in day order."""
        return [self._featured_by_day[d] for d in sorted(self._featured_by_day)]

    def sample(self, u: float, t_s: Optional[float] = None) -> Video:
        """Sample a video from the popularity distribution.

        Args:
            u: A uniform ``[0, 1)`` variate supplied by the caller (keeps
                the catalog stateless so every workload stream owns its RNG).
            t_s: Simulation time in seconds; when it falls inside a feature
                window, the featured video absorbs ``featured_share`` of the
                probability mass (the paper's videos were "played by default
                when accessing the www.youtube.com web page for exactly 24
                hours").

        Returns:
            The sampled :class:`Video`.
        """
        if not 0.0 <= u < 1.0:
            raise ValueError(f"u out of [0,1): {u}")
        if t_s is not None:
            featured = self._featured_by_day.get(int(t_s // 86400.0))
            if featured is not None:
                if u < self._featured_share:
                    return featured
                u = (u - self._featured_share) / (1.0 - self._featured_share)
        # bisect over the float64 buffer finds np.searchsorted's
        # side="right" index without numpy's per-call overhead.
        index = bisect_right(memoryview(self._cumulative), u * self._total_weight)
        return self._videos[min(index, self._size - 1)]

    def popularity_cutoff_rank(self, mass_fraction: float) -> int:
        """Smallest rank prefix capturing ``mass_fraction`` of request mass.

        Used by content placement: the head of the catalog (e.g. the ranks
        covering 70 % of requests) is replicated to every data center.
        """
        check_mass_fraction(mass_fraction)
        target = mass_fraction * self._total_weight
        return int(np.searchsorted(self._cumulative, target, side="left")) + 1
