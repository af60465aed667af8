"""Bootstrap confidence intervals for trace-derived fractions.

A week-long trace is one sample of a stochastic system, and headline
numbers like "11.7 % of video flows hit non-preferred data centers" deserve
error bars.  This module provides a small, dependency-free bootstrap over
per-unit statistics (flows, sessions, hours) so analyses can report
intervals alongside point estimates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Sequence, TypeVar

T = TypeVar("T")


@dataclass(frozen=True)
class ConfidenceInterval:
    """A bootstrap interval for one statistic.

    Attributes:
        point: The statistic on the full sample.
        low: Lower bound.
        high: Upper bound.
        level: Coverage level (e.g. 0.95).
        resamples: Bootstrap resamples drawn.
    """

    point: float
    low: float
    high: float
    level: float
    resamples: int

    @property
    def width(self) -> float:
        """Interval width."""
        return self.high - self.low

    def __str__(self) -> str:
        return f"{self.point:.4f} [{self.low:.4f}, {self.high:.4f}] @{self.level:.0%}"


def bootstrap_interval(
    items: Sequence[T],
    statistic: Callable[[Sequence[T]], float],
    level: float = 0.95,
    resamples: int = 500,
    seed: int = 0,
) -> ConfidenceInterval:
    """Percentile-bootstrap interval for an arbitrary statistic.

    Args:
        items: The sample units (flows, sessions, hourly values, ...).
        statistic: Function from a sample to the statistic of interest.
        level: Coverage level in (0, 1).
        resamples: Number of bootstrap resamples.
        seed: RNG seed.

    Returns:
        The :class:`ConfidenceInterval`.

    Raises:
        ValueError: On an empty sample or bad parameters.
    """
    if not items:
        raise ValueError("cannot bootstrap an empty sample")
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    if resamples < 10:
        raise ValueError("need at least 10 resamples")
    rng = random.Random(seed)
    n = len(items)
    point = statistic(items)
    values: List[float] = []
    for _ in range(resamples):
        resample = [items[rng.randrange(n)] for _ in range(n)]
        values.append(statistic(resample))
    values.sort()
    alpha = (1.0 - level) / 2.0
    low_idx = max(0, int(alpha * resamples) - 1)
    high_idx = min(resamples - 1, int((1.0 - alpha) * resamples))
    return ConfidenceInterval(
        point=point,
        low=values[low_idx],
        high=values[high_idx],
        level=level,
        resamples=resamples,
    )


def fraction_interval(
    flags: Sequence[bool],
    level: float = 0.95,
    resamples: int = 500,
    seed: int = 0,
) -> ConfidenceInterval:
    """Bootstrap interval for a simple fraction of boolean flags.

    Convenience wrapper for the most common case: "what share of units
    have property X" — e.g. flags = "this video flow hit a non-preferred
    data center" over all video flows.
    """
    return bootstrap_interval(
        flags,
        lambda sample: sum(1 for f in sample if f) / len(sample),
        level=level,
        resamples=resamples,
        seed=seed,
    )
