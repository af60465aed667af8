"""Empirical CDFs and labelled series.

The paper's figures are almost all CDFs or hourly time series; these two
containers carry the regenerated data and render it as text.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Tuple

import numpy as np


class Cdf:
    """An empirical cumulative distribution function.

    Args:
        values: Sample values (any iterable of floats, or a numpy array —
            arrays are sorted in C and converted back to built-in floats,
            so the resulting CDF is identical either way).

    Raises:
        ValueError: On an empty sample.
    """

    def __init__(self, values: Iterable[float]):
        if isinstance(values, np.ndarray):
            self._values = np.sort(values.astype(float, copy=False)).tolist()
        else:
            self._values: List[float] = sorted(float(v) for v in values)
        if not self._values:
            raise ValueError("cannot build a CDF from no samples")

    def __len__(self) -> int:
        return len(self._values)

    @property
    def min(self) -> float:
        """Smallest sample."""
        return self._values[0]

    @property
    def max(self) -> float:
        """Largest sample."""
        return self._values[-1]

    def fraction_below(self, x: float) -> float:
        """P(X <= x) under the empirical distribution."""
        return bisect.bisect_right(self._values, x) / len(self._values)

    def quantile(self, p: float) -> float:
        """The p-quantile (nearest-rank).

        Raises:
            ValueError: If p is outside [0, 1].
        """
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p out of [0, 1]: {p}")
        if p == 0.0:
            return self._values[0]
        rank = max(0, math.ceil(p * len(self._values)) - 1)
        return self._values[rank]

    @property
    def median(self) -> float:
        """The 50th percentile."""
        return self.quantile(0.5)

    def mean(self) -> float:
        """Sample mean."""
        return sum(self._values) / len(self._values)

    def points(self, max_points: int = 200) -> List[Tuple[float, float]]:
        """(value, cumulative fraction) pairs, decimated for display."""
        n = len(self._values)
        step = max(1, n // max_points)
        pts = [(self._values[i], (i + 1) / n) for i in range(0, n, step)]
        if pts[-1][0] != self._values[-1]:
            pts.append((self._values[-1], 1.0))
        return pts

    def render(
        self, label: str = "value", probes: Sequence[float] = (0.1, 0.25, 0.5, 0.75, 0.9, 0.99)
    ) -> str:
        """A compact text rendering of key quantiles."""
        parts = [f"p{int(p * 100):02d}={self.quantile(p):.4g}" for p in probes]
        return f"CDF[{label}] n={len(self)} " + " ".join(parts)


@dataclass
class Series:
    """A labelled x/y series (one curve of a figure).

    Attributes:
        label: Curve label (usually the dataset name).
        xs: X values.
        ys: Y values (same length).
    """

    label: str
    xs: List[float] = field(default_factory=list)
    ys: List[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.xs) != len(self.ys):
            raise ValueError("xs and ys must align")

    def append(self, x: float, y: float) -> None:
        """Append one point."""
        self.xs.append(x)
        self.ys.append(y)

    def __len__(self) -> int:
        return len(self.xs)

    def max_y(self) -> float:
        """Largest y value."""
        if not self.ys:
            raise ValueError("empty series")
        return max(self.ys)

    def render(self, max_points: int = 24) -> str:
        """Compact text rendering (decimated)."""
        n = len(self.xs)
        step = max(1, n // max_points)
        pts = ", ".join(
            f"({self.xs[i]:.4g},{self.ys[i]:.4g})" for i in range(0, n, step)
        )
        return f"Series[{self.label}] n={n}: {pts}"


def hourly_counts(hours: Iterable[int], num_hours: int) -> List[int]:
    """Count items per trace hour.

    Args:
        hours: Hour index of each item (an iterable, or a numpy integer
            array — counted with ``bincount`` and converted back to a
            plain list of ints, so the result is identical either way).
        num_hours: Total hours in the window.

    Returns:
        A list of length ``num_hours`` of counts.
    """
    if isinstance(hours, np.ndarray):
        h = hours.astype(np.int64, copy=False)
        h = h[(h >= 0) & (h < num_hours)]
        return np.bincount(h, minlength=num_hours).tolist()
    counts = [0] * num_hours
    for hour in hours:
        if 0 <= hour < num_hours:
            counts[hour] += 1
    return counts
