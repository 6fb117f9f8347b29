"""Consistent-hash sharding across multiple caches.

The paper notes that remote-process caches "can often be scaled across
multiple processes and nodes to handle high request rates and increase
availability", and its related work covers load-balancing across multiple
memcached servers.  :class:`ShardedCache` implements the standard client-side
technique: a consistent-hash ring with virtual nodes maps every key to one
child cache, so capacity scales linearly with shard count and adding or
removing a shard remaps only ~1/N of the keyspace (unlike modulo hashing,
which remaps nearly everything).

Children are any :class:`~repro.caching.interface.Cache` -- typically one
:class:`~repro.caching.remote.RemoteProcessCache` per server -- and the
composite is itself a ``Cache``, so it slots into the DSCL unchanged.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Any, Iterator

from ..errors import CacheError, ConfigurationError
from ..kv.interface import encode_key
from .interface import MISS, Cache

__all__ = ["HashRing", "ShardedCache"]


class HashRing:
    """Consistent-hash ring with virtual nodes."""

    def __init__(self, *, replicas: int = 64) -> None:
        """Create an empty ring with *replicas* virtual nodes per member."""
        if replicas < 1:
            raise ConfigurationError("replicas must be at least 1")
        self._replicas = replicas
        self._ring: list[tuple[int, str]] = []
        self._members: set[str] = set()

    @staticmethod
    def _hash(data: str) -> int:
        return int.from_bytes(hashlib.sha1(encode_key(data)).digest()[:8], "big")

    # ------------------------------------------------------------------
    def add(self, member: str) -> None:
        """Add *member*; ~1/N of existing keys remap to it."""
        if member in self._members:
            return
        self._members.add(member)
        for replica in range(self._replicas):
            position = self._hash(f"{member}#{replica}")
            bisect.insort(self._ring, (position, member))

    def remove(self, member: str) -> None:
        """Remove *member*; only its keys remap (to their ring successors)."""
        if member not in self._members:
            return
        self._members.discard(member)
        self._ring = [(pos, m) for pos, m in self._ring if m != member]

    def locate(self, key: str) -> str:
        """The member owning *key*: first ring position at or after its hash."""
        if not self._ring:
            raise CacheError("hash ring has no members")
        position = self._hash(key)
        index = bisect.bisect_left(self._ring, (position, ""))
        if index == len(self._ring):
            index = 0  # wrap around
        return self._ring[index][1]

    @property
    def members(self) -> set[str]:
        return set(self._members)

    def __len__(self) -> int:
        return len(self._members)


class ShardedCache(Cache):
    """One logical cache over N shard caches via consistent hashing."""

    def __init__(
        self,
        shards: dict[str, Cache],
        *,
        replicas: int = 64,
        name: str = "sharded",
    ) -> None:
        """Compose *shards* (shard name -> cache).

        Shard names must be stable across processes for all clients to
        agree on key placement.
        """
        super().__init__()
        if not shards:
            raise ConfigurationError("a sharded cache needs at least one shard")
        self.name = name
        self._shards = dict(shards)
        self._ring = HashRing(replicas=replicas)
        for shard_name in self._shards:
            self._ring.add(shard_name)

    # ------------------------------------------------------------------
    def shard_for(self, key: str) -> Cache:
        """The child cache responsible for *key*."""
        return self._shards[self._ring.locate(key)]

    def add_shard(self, name: str, cache: Cache) -> None:
        """Scale out: add a shard.  ~1/N of keys now map to it (they will
        re-miss and refill; the old copies age out of their former shards)."""
        if name in self._shards:
            raise ConfigurationError(f"shard {name!r} already exists")
        self._shards[name] = cache
        self._ring.add(name)

    def remove_shard(self, name: str) -> Cache:
        """Scale in: detach and return a shard (its entries are dropped
        from the composite's view)."""
        if name not in self._shards:
            raise ConfigurationError(f"no shard named {name!r}")
        self._ring.remove(name)
        return self._shards.pop(name)

    @property
    def shard_names(self) -> list[str]:
        return sorted(self._shards)

    # ------------------------------------------------------------------
    def get(self, key: str) -> Any:
        value = self.shard_for(key).get(key)
        if value is MISS:
            self.stats.record_miss()
        else:
            self.stats.record_hit()
        return value

    def get_quiet(self, key: str) -> Any:
        return self.shard_for(key).get_quiet(key)

    def put(self, key: str, value: Any) -> None:
        self.shard_for(key).put(key, value)
        self.stats.record_put()

    def delete(self, key: str) -> bool:
        removed = self.shard_for(key).delete(key)
        if removed:
            self.stats.record_delete()
        return removed

    def clear(self) -> int:
        return sum(shard.clear() for shard in self._shards.values())

    def size(self) -> int:
        return sum(shard.size() for shard in self._shards.values())

    def keys(self) -> Iterator[str]:
        for shard in self._shards.values():
            yield from shard.keys()

    def close(self) -> None:
        for shard in self._shards.values():
            shard.close()

    # ------------------------------------------------------------------
    def distribution(self) -> dict[str, int]:
        """Entries per shard (load-balance diagnostics)."""
        return {name: shard.size() for name, shard in sorted(self._shards.items())}
