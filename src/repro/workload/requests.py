"""Request-stream generation for one vantage point's simulated week.

Combines the diurnal profile, the client population and the video catalog
into a time-ordered stream of :class:`Request` events.  Interactions
(resolution switches, seeks) append loosely-spaced follow-up requests for
the same client/video pair.
"""

from __future__ import annotations

import math
import random
from operator import attrgetter
from typing import List, NamedTuple, Optional

from repro.cdn.catalog import Resolution, Video, VideoCatalog
from repro.workload.clients import Client, ClientPopulation
from repro.workload.diurnal import DiurnalProfile
from repro.workload.interactions import InteractionModel

#: Resolution popularity in the 2010-era mix (360p dominates).
_RESOLUTION_WEIGHTS = (
    (Resolution.R240, 0.20),
    (Resolution.R360, 0.55),
    (Resolution.R480, 0.20),
    (Resolution.R720, 0.05),
)


class Request(NamedTuple):
    """One user video request.

    Attributes:
        t_s: Request time, seconds from trace start.
        client: Requesting client.
        video: Requested video.
        resolution: Requested resolution.
        is_interaction: Whether this is a follow-up player interaction
            rather than a fresh playback.
    """

    t_s: float
    client: Client
    video: Video
    resolution: Resolution
    is_interaction: bool = False


def sample_resolution(rng: random.Random) -> Resolution:
    """Sample a playback resolution from the 2010-era mix."""
    u = rng.random()
    acc = 0.0
    for resolution, weight in _RESOLUTION_WEIGHTS:
        acc += weight
        if u < acc:
            return resolution
    return _RESOLUTION_WEIGHTS[-1][0]


class RequestGenerator:
    """Generates a vantage point's request stream for a simulated window.

    Args:
        population: Client population.
        catalog: Video catalog.
        profile: Diurnal/weekly rate profile.
        requests_per_day: Mean primary (non-interaction) requests per day.
        interactions: Interaction model (defaults to the standard one).
        seed: RNG seed.
    """

    def __init__(
        self,
        population: ClientPopulation,
        catalog: VideoCatalog,
        profile: DiurnalProfile,
        requests_per_day: float,
        interactions: Optional[InteractionModel] = None,
        seed: int = 0,
    ):
        if requests_per_day <= 0:
            raise ValueError("requests_per_day must be positive")
        self._population = population
        self._catalog = catalog
        self._profile = profile
        self._requests_per_day = requests_per_day
        self._interactions = interactions if interactions is not None else InteractionModel()
        self._seed = seed

    def generate(self, duration_s: float = 7 * 86400.0) -> List[Request]:
        """Generate the time-ordered request stream.

        Hourly counts are Poisson with rate ``requests_per_day / 24`` scaled
        by the profile; timestamps are uniform inside each hour.

        Args:
            duration_s: Window length in seconds (default one week).

        Returns:
            Requests sorted by time.
        """
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        rng = random.Random(self._seed)
        base_per_hour = self._requests_per_day / 24.0
        requests: List[Request] = []
        num_hours = int(duration_s // 3600.0)
        remainder_s = duration_s - num_hours * 3600.0
        for hour in range(num_hours + (1 if remainder_s > 0 else 0)):
            hour_start = hour * 3600.0
            span = min(3600.0, duration_s - hour_start)
            rate = base_per_hour * self._profile.multiplier(hour_start) * (span / 3600.0)
            count = _poisson(rate, rng)
            for _ in range(count):
                t = hour_start + rng.uniform(0.0, span)
                self._one_playback(t, rng, duration_s, requests)
        requests.sort(key=attrgetter("t_s"))
        return requests

    def _one_playback(
        self, t_s: float, rng: random.Random, duration_s: float, requests: List[Request]
    ) -> None:
        """Append one playback's request and its follow-up interactions."""
        client = self._population.sample(rng.random())
        video = self._catalog.sample(rng.random(), t_s)
        resolution = sample_resolution(rng)
        requests.append(Request(t_s, client, video, resolution))
        cursor = t_s
        current_resolution = resolution
        for gap in self._interactions.draw_gaps(rng):
            cursor += gap
            if cursor >= duration_s:
                break
            current_resolution = self._interactions.next_resolution(current_resolution, rng)
            requests.append(Request(cursor, client, video, current_resolution, True))


def _poisson(rate: float, rng: random.Random) -> int:
    """Poisson sample via inversion (small rates) or normal approximation."""
    if rate <= 0.0:
        return 0
    if rate > 50.0:
        # Normal approximation is plenty for hourly arrival counts.
        return max(0, round(rng.gauss(rate, rate**0.5)))
    threshold = math.exp(-rate)
    k = 0
    product = rng.random()
    while product > threshold:
        k += 1
        product *= rng.random()
    return k
