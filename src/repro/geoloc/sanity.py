"""Physical sanity checks on geolocation claims.

Section V's refutation of the IP-to-location database is a physics
argument: "many of the RTT measurements for the European connections are
too small to be compatible with intercontinental propagation time
constraints".  This module turns that argument into a reusable check: given
a claimed location and a measured RTT from a known vantage, is the claim
physically possible?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional

from repro.geo.coords import GeoPoint, haversine_km
from repro.net.latency import LatencyModel


@dataclass(frozen=True)
class SanityViolation:
    """One physically impossible location claim.

    Attributes:
        target: Label of the checked target (e.g. the server IP string).
        claimed: The claimed location.
        measured_rtt_ms: The measured RTT from the vantage.
        required_rtt_ms: The minimum RTT physics allows for the claim.
    """

    target: str
    claimed: GeoPoint
    measured_rtt_ms: float
    required_rtt_ms: float

    @property
    def impossibility_factor(self) -> float:
        """How many times too fast the measurement is for the claim."""
        if self.measured_rtt_ms <= 0:
            return float("inf")
        return self.required_rtt_ms / self.measured_rtt_ms


def check_claim(
    vantage: GeoPoint,
    claimed: GeoPoint,
    measured_rtt_ms: float,
    target: str = "",
    slack: float = 1.0,
) -> Optional[SanityViolation]:
    """Check one location claim against one RTT measurement.

    Args:
        vantage: Where the measurement was taken from.
        claimed: The claimed target location.
        measured_rtt_ms: Measured minimum RTT.
        target: Label for reporting.
        slack: Multiplier on the physical bound (1.0 = strict
            speed-of-light-in-fibre; lower values tolerate measurement
            error).

    Returns:
        A :class:`SanityViolation` when the claim is impossible, else
        ``None``.

    Raises:
        ValueError: For non-positive slack.
    """
    if slack <= 0:
        raise ValueError("slack must be positive")
    distance = haversine_km(vantage, claimed)
    required = LatencyModel.ideal_rtt_ms(distance) * slack
    if measured_rtt_ms < required:
        return SanityViolation(
            target=target,
            claimed=claimed,
            measured_rtt_ms=measured_rtt_ms,
            required_rtt_ms=required,
        )
    return None


def audit_claims(
    vantage: GeoPoint,
    claims: Mapping[str, GeoPoint],
    rtts_ms: Mapping[str, float],
    slack: float = 1.0,
) -> List[SanityViolation]:
    """Audit a batch of claims against a ping campaign.

    Targets without both a claim and a measurement are skipped.

    Returns:
        All violations, sorted by impossibility factor (worst first).
    """
    violations: List[SanityViolation] = []
    for target, claimed in claims.items():
        rtt = rtts_ms.get(target)
        if rtt is None:
            continue
        violation = check_claim(vantage, claimed, rtt, target=target, slack=slack)
        if violation is not None:
            violations.append(violation)
    violations.sort(key=lambda v: -v.impossibility_factor)
    return violations
