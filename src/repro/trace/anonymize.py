"""Prefix-preserving trace anonymisation.

The reason studies like this one cannot share their raw data is that flow
logs identify customers.  The standard remedy is Crypto-PAn-style
*prefix-preserving* address anonymisation: a keyed bijection on IPv4
addresses such that two addresses share a k-bit prefix **iff** their
anonymised forms share a k-bit prefix.  That property keeps every analysis
in this package meaningful on anonymised logs: /24 server aggregation,
subnet attribution (Figure 12), per-client statistics — all survive,
while real addresses do not.

The implementation follows the Crypto-PAn construction with HMAC-SHA256 as
the keyed function: bit *i* of the output flips based on a pseudorandom
function of the *i*-bit input prefix.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Dict, Iterable

import numpy as np

from repro.trace.columnar import FlowTable, _Columns


class PrefixPreservingAnonymizer:
    """A keyed, prefix-preserving bijection on IPv4 addresses.

    Args:
        key: Secret key (any bytes; keep it if you ever need to map
            follow-up traces consistently).

    The mapping is deterministic for a key, bijective on the full 32-bit
    space, and prefix-preserving: for any two addresses and any k,
    ``a >> (32-k) == b >> (32-k)`` iff the anonymised pair agree on their
    top k bits.
    """

    def __init__(self, key: bytes):
        if not key:
            raise ValueError("anonymisation key must not be empty")
        self._key = key
        self._cache: Dict[int, int] = {}

    def _flip_bit(self, prefix: int, length: int) -> int:
        """Pseudorandom bit decided by the ``length``-bit prefix."""
        message = length.to_bytes(1, "big") + prefix.to_bytes(4, "big")
        digest = hmac.new(self._key, message, hashlib.sha256).digest()
        return digest[0] & 1

    def anonymize_ip(self, ip: int) -> int:
        """Anonymise one address.

        Raises:
            ValueError: For out-of-range inputs.
        """
        if not 0 <= ip < (1 << 32):
            raise ValueError(f"IPv4 address out of range: {ip!r}")
        cached = self._cache.get(ip)
        if cached is not None:
            return cached
        out = 0
        for i in range(32):
            # The i-bit prefix of the input decides whether output bit i
            # (from the top) flips relative to the input bit.
            prefix = ip >> (32 - i) if i > 0 else 0
            input_bit = (ip >> (31 - i)) & 1
            out = (out << 1) | (input_bit ^ self._flip_bit(prefix, i))
        self._cache[ip] = out
        return out

    def anonymize_table(self, table: FlowTable) -> FlowTable:
        """Anonymise a flow table's two address columns (metrics unchanged).

        Each distinct address is mapped once.
        """
        cols = table.columns()
        return FlowTable(_Columns(
            self._anonymize_column(cols.src_ip),
            self._anonymize_column(cols.dst_ip),
            cols.num_bytes, cols.t_start, cols.t_end,
            cols.video_ids, cols.video_code, cols.resolutions, cols.resolution_code,
        ))

    def _anonymize_column(self, ips):
        uniq, code = np.unique(ips, return_inverse=True)
        mapped = np.fromiter(map(self.anonymize_ip, uniq.tolist()), np.int64, count=len(uniq))
        return mapped[code]


def shared_prefix_bits(a: int, b: int) -> int:
    """Length of the common prefix of two 32-bit addresses."""
    diff = a ^ b
    if diff == 0:
        return 32
    return 32 - diff.bit_length()


def verify_prefix_preservation(
    anonymizer: PrefixPreservingAnonymizer, addresses: Iterable[int]
) -> bool:
    """Check the prefix-preservation property over a sample (for tests and
    for auditors of a released trace)."""
    pairs = list(addresses)
    mapped = [anonymizer.anonymize_ip(ip) for ip in pairs]
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            if shared_prefix_bits(pairs[i], pairs[j]) != shared_prefix_bits(
                mapped[i], mapped[j]
            ):
                return False
    return True
