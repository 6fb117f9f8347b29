"""Bloom-filter front for remote caches.

A remote-process cache charges a full network round trip to discover a
*miss* -- the worst deal in caching: pay latency, receive nothing.  A local
Bloom filter over the cache's keys answers "definitely not cached" in
nanoseconds, so miss-heavy workloads skip most of those wasted trips.

Properties of the classic Bloom filter apply:

* **no false negatives** -- if the filter says "absent", the key was never
  inserted, so short-circuiting the lookup is always safe;
* **tunable false positives** -- a "maybe present" still goes to the
  remote cache and may miss there; the configured ``fp_rate`` bounds how
  often (for up to ``expected_items`` inserted keys);
* **no deletion** -- deleted keys stay in the filter as false positives
  until :meth:`BloomFrontedCache.rebuild` resynchronises it from the
  cache's actual keys.
"""

from __future__ import annotations

import math
import struct
from typing import Any, Iterator

# CPython's built-in SHA-256, as ``random`` takes ``_sha512``: the digest is
# hashlib's, but importing it does not map OpenSSL into a serving process.
try:
    from _sha256 import sha256 as _sha256  # CPython <= 3.11
except ImportError:
    try:
        from _sha2 import sha256 as _sha256  # CPython 3.12+
    except ImportError:  # a build without the built-in hashes
        from hashlib import sha256 as _sha256

from ..errors import ConfigurationError
from ..kv.interface import encode_key
from .interface import MISS, Cache

__all__ = ["BloomFilter", "BloomFrontedCache", "key_hash"]

_BLOOM_HEADER = struct.Struct("<III")  # size_bits, hash_count, items
_HASH_PAIR = struct.Struct(">QQ")  # h1, h2: the digest's first 16 bytes


def key_hash(key: "str | bytes") -> tuple[int, int]:
    """The pair ``(h1, h2)`` every filter derives its bit positions from.

    It depends on the key only, not on a filter's size, so a lookup that
    probes many filters (one per SSTable) hashes once and passes the pair
    to :meth:`BloomFilter.might_contain_hash`.
    """
    data = key if isinstance(key, bytes) else encode_key(key)
    return _HASH_PAIR.unpack_from(_sha256(data).digest())


class BloomFilter:
    """Plain Bloom filter over strings or bytes; bits live in a ``bytearray``
    (bit *i* = byte ``i // 8``, bit ``i % 8``), so setting or testing one
    costs the same whatever the filter's size."""

    def __init__(self, expected_items: int = 10_000, fp_rate: float = 0.01) -> None:
        """Size the filter for *expected_items* at *fp_rate* false positives.

        Standard sizing: ``m = -n ln(p) / (ln 2)^2`` bits and
        ``k = (m/n) ln 2`` hash functions.
        """
        if expected_items < 1:
            raise ConfigurationError("expected_items must be positive")
        if not 0.0 < fp_rate < 1.0:
            raise ConfigurationError("fp_rate must be in (0, 1)")
        self.size_bits = max(8, int(-expected_items * math.log(fp_rate) / math.log(2) ** 2))
        self.hash_count = max(1, round(self.size_bits / expected_items * math.log(2)))
        self._bits = bytearray((self.size_bits + 7) // 8)
        self._items = 0

    def _start(self, hashed: tuple[int, int]) -> tuple[int, int]:
        """First bit position and stride for a :func:`key_hash` pair.

        Double hashing (Kirsch-Mitzenmacher): position i is (h1 + i * h2)
        mod m, advanced with an add and a conditional subtract.
        """
        h1, h2 = hashed
        return h1 % self.size_bits, (h2 | 1) % self.size_bits

    def add(self, key: "str | bytes") -> None:
        bits, size = self._bits, self.size_bits
        position, step = self._start(key_hash(key))
        for _ in range(self.hash_count):
            bits[position >> 3] |= 1 << (position & 7)
            position += step
            if position >= size:
                position -= size
        self._items += 1

    def might_contain(self, key: "str | bytes") -> bool:
        """False = definitely absent; True = possibly present."""
        return self.might_contain_hash(key_hash(key))

    def might_contain_hash(self, hashed: tuple[int, int]) -> bool:
        """:meth:`might_contain` for a key already hashed by :func:`key_hash`."""
        bits, size = self._bits, self.size_bits
        position, step = self._start(hashed)
        for _ in range(self.hash_count):
            if not bits[position >> 3] >> (position & 7) & 1:
                return False
            position += step
            if position >= size:
                position -= size
        return True

    # ------------------------------------------------------------------
    # Persistence (used by the LSM engine to embed a filter per SSTable)
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize sizing + bit array; inverse of :meth:`from_bytes`."""
        return _BLOOM_HEADER.pack(self.size_bits, self.hash_count, self._items) + self._bits

    @classmethod
    def from_bytes(cls, payload: bytes) -> "BloomFilter":
        """Rebuild a filter exactly as :meth:`to_bytes` captured it."""
        if len(payload) < _BLOOM_HEADER.size:
            raise ConfigurationError("truncated bloom filter payload")
        size_bits, hash_count, items = _BLOOM_HEADER.unpack_from(payload, 0)
        width = (size_bits + 7) // 8
        if len(payload) != _BLOOM_HEADER.size + width:
            raise ConfigurationError("bloom filter payload length mismatch")
        instance = cls.__new__(cls)
        instance.size_bits = size_bits
        instance.hash_count = hash_count
        instance._items = items
        instance._bits = bytearray(payload[_BLOOM_HEADER.size :])
        return instance

    def clear(self) -> None:
        self._bits = bytearray(len(self._bits))
        self._items = 0

    @property
    def approximate_items(self) -> int:
        """Keys added since the last clear (including duplicates)."""
        return self._items

    @property
    def saturation(self) -> float:
        """Fraction of bits set; above ~0.5 the FP rate degrades."""
        return int.from_bytes(self._bits, "little").bit_count() / self.size_bits


class BloomFrontedCache(Cache):
    """A cache (typically remote) fronted by a local Bloom filter.

    ``get`` consults the filter first and returns :data:`MISS` locally when
    the key was never cached here; ``put`` inserts into both.  Deletions
    leave stale filter bits (safe -- only costs an occasional wasted trip);
    call :meth:`rebuild` periodically or after bulk deletions.

    Note the filter tracks keys cached *through this instance* (plus
    rebuilds).  Keys inserted by other clients of a shared server are
    invisible until a rebuild -- acceptable for the private-working-set
    pattern, wrong for a shared read-mostly cache; rebuild accordingly.
    """

    def __init__(
        self,
        inner: Cache,
        *,
        expected_items: int = 10_000,
        fp_rate: float = 0.01,
        name: str | None = None,
    ) -> None:
        super().__init__()
        self.name = name if name is not None else f"bloom({inner.name})"
        self._inner = inner
        self._filter = BloomFilter(expected_items, fp_rate)
        self._expected_items = expected_items
        self._fp_rate = fp_rate
        #: lookups answered locally (network trip avoided)
        self.short_circuits = 0

    @property
    def inner(self) -> Cache:
        return self._inner

    @property
    def bloom(self) -> BloomFilter:
        return self._filter

    # ------------------------------------------------------------------
    def get(self, key: str) -> Any:
        if not self._filter.might_contain(key):
            self.short_circuits += 1
            self.stats.record_miss()
            return MISS
        value = self._inner.get(key)
        if value is MISS:
            self.stats.record_miss()
        else:
            self.stats.record_hit()
        return value

    def get_quiet(self, key: str) -> Any:
        if not self._filter.might_contain(key):
            return MISS
        return self._inner.get_quiet(key)

    def put(self, key: str, value: Any) -> None:
        self._inner.put(key, value)
        self._filter.add(key)
        self.stats.record_put()

    def delete(self, key: str) -> bool:
        # The filter can't forget; the stale bit only costs a future trip.
        removed = self._inner.delete(key)
        if removed:
            self.stats.record_delete()
        return removed

    def clear(self) -> int:
        self._filter.clear()
        return self._inner.clear()

    def size(self) -> int:
        return self._inner.size()

    def keys(self) -> Iterator[str]:
        return self._inner.keys()

    def close(self) -> None:
        self._inner.close()

    # ------------------------------------------------------------------
    def rebuild(self) -> int:
        """Resynchronise the filter from the inner cache's actual keys.

        Returns the number of keys indexed.  Run after bulk deletions, on
        a timer, or when :attr:`BloomFilter.saturation` climbs.
        """
        fresh = BloomFilter(self._expected_items, self._fp_rate)
        count = 0
        for key in self._inner.keys():
            fresh.add(key)
            count += 1
        self._filter = fresh
        return count
