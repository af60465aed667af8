"""Client populations behind a vantage point.

Each monitored network hosts a set of client hosts (Table I's ``#Clients``
column) spread over its internal subnets (Figure 12's unit of analysis).
Per-client activity is heavy-tailed: a handful of hosts generate a large
share of the requests, as in any real edge trace.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.net.topology import Subnet, VantagePoint


@dataclass(frozen=True)
class Client:
    """One client host.

    Attributes:
        ip: The host's address (integer IPv4).
        subnet_name: Name of the internal subnet homing it.
        activity: Unnormalised request-rate weight.
    """

    ip: int
    subnet_name: str
    activity: float


class ClientPopulation:
    """The sampled client body of one vantage point."""

    def __init__(self, vantage: VantagePoint, clients: List[Client]):
        if not clients:
            raise ValueError("population must not be empty")
        self.vantage = vantage
        self._clients = clients
        weights = np.array([c.activity for c in clients], dtype=np.float64)
        self._cumulative = np.cumsum(weights)
        self._total = float(self._cumulative[-1])

    def __len__(self) -> int:
        return len(self._clients)

    def __iter__(self):
        return iter(self._clients)

    def sample(self, u: float) -> Client:
        """Sample a client proportionally to activity.

        Args:
            u: Uniform ``[0, 1)`` variate from the caller's RNG.
        """
        if not 0.0 <= u < 1.0:
            raise ValueError(f"u out of [0,1): {u}")
        # bisect over the float64 buffer finds np.searchsorted's
        # side="right" index without numpy's per-call overhead.
        index = bisect_right(memoryview(self._cumulative), u * self._total)
        return self._clients[min(index, len(self._clients) - 1)]


def build_population(vantage: VantagePoint, num_clients: int, seed: int = 0) -> ClientPopulation:
    """Sample a client population for a vantage point.

    Clients are split across subnets by each subnet's ``client_share`` and
    given log-normal activity weights (sigma ≈ 1.2 yields the usual
    few-heavy-users skew).

    Args:
        vantage: The vantage point (its subnets define the address space).
        num_clients: Total clients to create.
        seed: RNG seed.

    Returns:
        The :class:`ClientPopulation`.

    Raises:
        ValueError: If a subnet is too small for its client share.
    """
    if num_clients < 1:
        raise ValueError("num_clients must be >= 1")
    if not vantage.subnets:
        raise ValueError(f"vantage point {vantage.name} has no subnets")
    rng = np.random.default_rng(seed)
    clients: List[Client] = []
    remaining = num_clients
    for i, subnet in enumerate(vantage.subnets):
        if i == len(vantage.subnets) - 1:
            count = remaining
        else:
            count = min(remaining, round(num_clients * subnet.client_share))
        remaining -= count
        count = max(count, 1) if remaining >= 0 else count
        clients.extend(_clients_in_subnet(subnet, count, rng))
    return ClientPopulation(vantage, clients)


def _clients_in_subnet(subnet: Subnet, count: int, rng: np.random.Generator) -> List[Client]:
    capacity = subnet.network.num_addresses - 2
    if count > capacity:
        raise ValueError(
            f"subnet {subnet.name} ({subnet.network}) holds at most {capacity} clients, "
            f"requested {count}"
        )
    # Sample distinct host offsets (skip network/broadcast addresses).
    offsets = rng.choice(np.arange(1, capacity + 1), size=count, replace=False)
    activities = rng.lognormal(mean=0.0, sigma=1.2, size=count)
    return [
        Client(
            ip=subnet.network.first + int(offset),
            subnet_name=subnet.name,
            activity=float(max(activity, 1e-3)),
        )
        for offset, activity in zip(offsets, activities)
    ]
