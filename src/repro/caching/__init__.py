"""Client-side caching (paper Section III).

The DSCL supports multiple cache implementations behind one small
:class:`~repro.caching.interface.Cache` interface:

* :class:`~repro.caching.inprocess.InProcessCache` -- data lives inside the
  application process (the paper's Guava-cache analogue).  No IPC, no
  serialization; optionally stores references directly (fast, aliasing
  caveat) or defensive copies.
* :class:`~repro.caching.remote.RemoteProcessCache` -- data lives in a
  separate cache server process (the Redis/memcached analogue), shared
  across clients, paying real serialization + IPC costs.
* :class:`~repro.caching.tiered.TieredCache` -- an L1 in-process cache over
  an L2 remote cache.

Expiration times are managed *above* the cache by
:class:`~repro.caching.expiration.ExpiringCache`, exactly as the paper
prescribes: not every cache supports TTLs, and expired entries must be
*retained* so they can be revalidated against the origin store instead of
re-fetched in full.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .interface import MISS, Cache, Miss
    from .entry import CacheEntry
    from .stats import CacheStats
    from .policies import (
        ClockPolicy,
        EvictionPolicy,
        FIFOPolicy,
        GreedyDualSizePolicy,
        LFUPolicy,
        LRUPolicy,
        make_policy,
    )
    from .inprocess import InProcessCache
    from .remote import RemoteProcessCache
    from .expiration import ExpiringCache, Freshness, LookupResult
    from .tiered import TieredCache
    from .kvadapter import KeyValueStoreCache
    from .warmup import load_cache, save_cache
    from .sharded import HashRing, ShardedCache
    from .profiling import StackDistanceProfiler
    from .bloom import BloomFilter, BloomFrontedCache

#: name -> defining module; resolved on first access (see ``repro._lazy``).
_EXPORTS = {
    "Cache": ".interface",
    "Miss": ".interface",
    "MISS": ".interface",
    "CacheEntry": ".entry",
    "CacheStats": ".stats",
    "EvictionPolicy": ".policies",
    "LRUPolicy": ".policies",
    "FIFOPolicy": ".policies",
    "LFUPolicy": ".policies",
    "ClockPolicy": ".policies",
    "GreedyDualSizePolicy": ".policies",
    "make_policy": ".policies",
    "InProcessCache": ".inprocess",
    "RemoteProcessCache": ".remote",
    "ExpiringCache": ".expiration",
    "Freshness": ".expiration",
    "LookupResult": ".expiration",
    "TieredCache": ".tiered",
    "KeyValueStoreCache": ".kvadapter",
    "save_cache": ".warmup",
    "load_cache": ".warmup",
    "HashRing": ".sharded",
    "ShardedCache": ".sharded",
    "StackDistanceProfiler": ".profiling",
    "BloomFilter": ".bloom",
    "BloomFrontedCache": ".bloom",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
