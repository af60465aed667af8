"""IPv4 addressing primitives.

Addresses are plain ``int`` on hot paths (a simulated week produces hundreds
of thousands of flows, each carrying two addresses); this module provides
parsing/formatting, CIDR networks with longest-prefix semantics, and a
sequential allocator used to carve the simulated world's address space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

_MAX_IP = (1 << 32) - 1


def parse_ip(text: str) -> int:
    """Parse dotted-quad notation into an integer address.

    Raises:
        ValueError: On malformed input.
    """
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"malformed IPv4 address: {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise ValueError(f"malformed IPv4 address: {text!r}")
        octet = int(part)
        if octet > 255 or (len(part) > 1 and part[0] == "0"):
            raise ValueError(f"malformed IPv4 address: {text!r}")
        value = (value << 8) | octet
    return value


def format_ip(ip: int) -> str:
    """Format an integer address as dotted-quad notation."""
    if not 0 <= ip <= _MAX_IP:
        raise ValueError(f"IPv4 address out of range: {ip!r}")
    return f"{ip >> 24 & 255}.{ip >> 16 & 255}.{ip >> 8 & 255}.{ip & 255}"


def slash24_of(ip: int) -> int:
    """The /24 network address containing ``ip``.

    The paper aggregates servers "with IP addresses in the same /24 subnet"
    into the same data center (Section V); this is the hot helper for that.
    """
    return ip & 0xFFFFFF00


@dataclass(frozen=True)
class IPv4Network:
    """A CIDR network (``network`` must be the zeroed base address).

    Attributes:
        network: Base address as an integer, low bits zero.
        prefix_len: Prefix length in ``[0, 32]``.
    """

    network: int
    prefix_len: int

    def __post_init__(self) -> None:
        if not 0 <= self.prefix_len <= 32:
            raise ValueError(f"prefix length out of range: {self.prefix_len}")
        if self.network & ~self.mask:
            raise ValueError(
                f"host bits set in network: {format_ip(self.network)}/{self.prefix_len}"
            )

    @property
    def mask(self) -> int:
        """The netmask as an integer."""
        if self.prefix_len == 0:
            return 0
        return (_MAX_IP << (32 - self.prefix_len)) & _MAX_IP

    @property
    def num_addresses(self) -> int:
        """Number of addresses in the network."""
        return 1 << (32 - self.prefix_len)

    @property
    def first(self) -> int:
        """Lowest address in the network."""
        return self.network

    @property
    def last(self) -> int:
        """Highest address in the network."""
        return self.network | (self.num_addresses - 1)

    def __contains__(self, ip: int) -> bool:
        return (ip & self.mask) == self.network

    def hosts(self) -> Iterator[int]:
        """Iterate over every address in the network (including base)."""
        return iter(range(self.first, self.last + 1))

    def subnets(self, new_prefix_len: int) -> Iterator["IPv4Network"]:
        """Split into subnets of the given (longer) prefix length."""
        if new_prefix_len < self.prefix_len:
            raise ValueError("new prefix must not be shorter than current")
        step = 1 << (32 - new_prefix_len)
        for base in range(self.first, self.last + 1, step):
            yield IPv4Network(base, new_prefix_len)

    def __str__(self) -> str:
        return f"{format_ip(self.network)}/{self.prefix_len}"


def parse_network(text: str) -> IPv4Network:
    """Parse ``a.b.c.d/len`` CIDR notation."""
    try:
        addr_text, len_text = text.split("/")
    except ValueError:
        raise ValueError(f"malformed CIDR: {text!r}") from None
    return IPv4Network(parse_ip(addr_text), int(len_text))


class Ipv4Allocator:
    """Sequential address allocator over a pool of CIDR blocks.

    Used when building the simulated world: the Google AS gets a pool of
    /16s carved into per-data-center /24s, ISPs get customer pools, etc.
    Allocation order is deterministic, so world construction is reproducible
    from the seed alone.
    """

    def __init__(self, pool: Tuple[IPv4Network, ...]):
        if not pool:
            raise ValueError("empty address pool")
        self._pool = list(pool)
        self._block = 0
        self._next = self._pool[0].first

    def allocate_network(self, prefix_len: int) -> IPv4Network:
        """Allocate the next aligned network of the given prefix length.

        Raises:
            RuntimeError: When no block can fit the request.
        """
        size = 1 << (32 - prefix_len)
        while self._block < len(self._pool):
            block = self._pool[self._block]
            if prefix_len < block.prefix_len:
                self._advance_block()
                continue
            # Align up inside the current block.
            base = (self._next + size - 1) & ~(size - 1)
            if base + size - 1 <= block.last:
                self._next = base + size
                return IPv4Network(base, prefix_len)
            self._advance_block()
        raise RuntimeError(f"cannot allocate a /{prefix_len}: pool exhausted")

    def _advance_block(self) -> None:
        self._block += 1
        if self._block < len(self._pool):
            self._next = self._pool[self._block].first
