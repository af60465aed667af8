"""Diurnal and weekly arrival-rate profiles.

"All datasets exhibit a clear day/night pattern in the number of requests"
(Section VII-A).  A profile maps absolute simulation time to a rate
multiplier around the daily mean; the request generator scales its hourly
Poisson rates by it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

#: Hour-of-day shape for a campus network: builds through the working day,
#: peaks late afternoon/evening, quiet overnight.  Values average to ~1.
CAMPUS_SHAPE: Tuple[float, ...] = (
    0.35, 0.22, 0.15, 0.12, 0.10, 0.12,  # 00-05
    0.25, 0.45, 0.80, 1.10, 1.30, 1.40,  # 06-11
    1.50, 1.55, 1.55, 1.60, 1.65, 1.70,  # 12-17
    1.75, 1.80, 1.75, 1.55, 1.15, 0.65,  # 18-23
)

#: Hour-of-day shape for residential (ADSL/FTTH) customers: morning bump,
#: strong evening prime-time peak.
RESIDENTIAL_SHAPE: Tuple[float, ...] = (
    0.40, 0.25, 0.15, 0.10, 0.08, 0.10,  # 00-05
    0.20, 0.40, 0.65, 0.85, 1.00, 1.10,  # 06-11
    1.20, 1.25, 1.20, 1.25, 1.35, 1.50,  # 12-17
    1.70, 1.95, 2.10, 2.00, 1.55, 0.85,  # 18-23
)

#: Day-of-week multipliers starting Saturday (the paper's traces start
#: Saturday, September 4th 2010 at 12:00 am local time).
_CAMPUS_WEEK: Tuple[float, ...] = (0.75, 0.70, 1.05, 1.10, 1.10, 1.10, 1.05)
_RESIDENTIAL_WEEK: Tuple[float, ...] = (1.15, 1.20, 0.95, 0.95, 0.95, 0.95, 1.05)


@dataclass(frozen=True)
class DiurnalProfile:
    """Arrival-rate multiplier as a function of simulation time.

    Attributes:
        hourly_shape: 24 multipliers indexed by local hour of day.
        weekly_shape: 7 multipliers indexed by day since trace start.
    """

    hourly_shape: Tuple[float, ...]
    weekly_shape: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.hourly_shape) != 24:
            raise ValueError("hourly_shape must have 24 entries")
        if len(self.weekly_shape) != 7:
            raise ValueError("weekly_shape must have 7 entries")
        if min(self.hourly_shape) < 0 or min(self.weekly_shape) < 0:
            raise ValueError("shape multipliers must be non-negative")

    def multiplier(self, t_s: float) -> float:
        """Rate multiplier at an absolute simulation time (seconds)."""
        if t_s < 0:
            raise ValueError("time must be non-negative")
        hour_of_day = int(t_s // 3600.0) % 24
        day = int(t_s // 86400.0) % 7
        return self.hourly_shape[hour_of_day] * self.weekly_shape[day]

    @classmethod
    def campus(cls) -> "DiurnalProfile":
        """Profile for a university campus vantage point."""
        return cls(hourly_shape=CAMPUS_SHAPE, weekly_shape=_CAMPUS_WEEK)

    @classmethod
    def residential(cls) -> "DiurnalProfile":
        """Profile for a residential ISP vantage point."""
        return cls(hourly_shape=RESIDENTIAL_SHAPE, weekly_shape=_RESIDENTIAL_WEEK)

    @classmethod
    def flat(cls) -> "DiurnalProfile":
        """Constant-rate profile (useful in unit tests)."""
        return cls(hourly_shape=(1.0,) * 24, weekly_shape=(1.0,) * 7)
