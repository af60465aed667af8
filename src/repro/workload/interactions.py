"""User interactions with the player.

Section VI-A: "large values of T may also group flows generated by user
interactions with the video player, such as changing the video resolution
and pausing or fast-forwarding a video."  These interactions issue *new*
requests for the same video tens-to-hundreds of seconds after the first one
— far beyond the T = 1 s system-redirect gap, which is exactly why the
paper's Figure 5 sees more multi-flow sessions at T = 60 s and T = 300 s.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from repro.cdn.catalog import Resolution


@dataclass(frozen=True)
class InteractionModel:
    """Distribution of follow-up player interactions.

    Attributes:
        probability: Chance a video playback triggers at least one
            interaction request.
        second_probability: Chance of a second interaction given a first.
        min_gap_s: Minimum delay after the previous request.
        max_gap_s: Maximum delay after the previous request.
        resolution_switch_probability: Chance the interaction changes the
            resolution (vs. a seek re-request at the same resolution).
    """

    probability: float = 0.12
    second_probability: float = 0.25
    min_gap_s: float = 20.0
    max_gap_s: float = 240.0
    resolution_switch_probability: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if not 0.0 <= self.second_probability <= 1.0:
            raise ValueError("second_probability must be in [0, 1]")
        if self.min_gap_s <= 0 or self.max_gap_s < self.min_gap_s:
            raise ValueError("need 0 < min_gap_s <= max_gap_s")

    def draw_gaps(self, rng: random.Random) -> List[float]:
        """Gaps (seconds after the previous request) of the interactions."""
        gaps: List[float] = []
        if rng.random() < self.probability:
            gaps.append(rng.uniform(self.min_gap_s, self.max_gap_s))
            if rng.random() < self.second_probability:
                gaps.append(rng.uniform(self.min_gap_s, self.max_gap_s))
        return gaps

    def next_resolution(self, current: Resolution, rng: random.Random) -> Resolution:
        """Resolution of the interaction request."""
        if rng.random() >= self.resolution_switch_probability:
            return current
        options = [r for r in Resolution if r is not current]
        return options[rng.randrange(len(options))]
