"""Block cache: SSTable blocks kept hot in memory, as the bytes read from disk.

The paper's central argument is that a cache *above* a slow substrate
closes the latency gap (UStore makes the same move inside the engine:
an in-memory cache over immutable on-disk pages is what makes a
log-structured design read-competitive).  This module applies that to
our own SSTables: without it every point read and every prefix scan
issues at least one ``pread`` per probed table; with it a hot working
set is served entirely from memory.

A **block** is the run of records between two adjacent sparse-index
entries -- exactly the unit a point read already scans -- so the cache
key is ``(table_id, index_slot)``.  A block is cached as the one
``bytes`` object ``pread`` returned, never decoded: a point read walks
its record headers in place and slices out only the record it wants, so
neither a hit nor a miss decodes the block.  SSTables
are immutable, which makes the cache trivially coherent: a block never
changes, it only becomes irrelevant when compaction retires its table,
at which point the store calls :meth:`BlockCache.invalidate` for that
table id.

One cache is shared by every table of a store (byte budget
``block_cache_bytes``, charged each block's length plus
:data:`BLOCK_OVERHEAD`), evicting least-recently-used blocks once the
budget is exceeded.  Thread-safe: readers probe it without holding the
store lock.

Metrics (when an :class:`~repro.obs.Observability` bundle is attached):
``lsm.block_cache.hits`` / ``lsm.block_cache.misses`` /
``lsm.block_cache.evictions`` counters and the ``lsm.block_cache.bytes``
gauge.  The same figures are always available via :meth:`stats` for the
``repro lsm stats`` CLI row.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from itertools import count

from ..errors import ConfigurationError
from ..obs import Observability, resolve_obs

__all__ = ["BlockCache"]

#: Fixed per-block charge on top of the block's length: the ``bytes``
#: header and the cache's own entry (key tuple, LRU node, table index),
#: ~350 B measured on CPython 3.11 -- so what the budget charges is what
#: the cache holds.
BLOCK_OVERHEAD = 352

_table_ids = count(1)


def next_table_id() -> int:
    """Process-unique id for one opened SSTable (cache-key namespace)."""
    return next(_table_ids)


class BlockCache:
    """Thread-safe LRU of raw SSTable blocks, bounded by bytes."""

    def __init__(
        self,
        capacity_bytes: int,
        *,
        obs: Observability | None = None,
    ) -> None:
        if capacity_bytes < 1:
            raise ConfigurationError("block cache capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self.obs = resolve_obs(obs)
        self._lock = threading.Lock()
        # (table_id, slot) -> (block, nbytes); move-to-end on hit = LRU.
        self._blocks: "OrderedDict[tuple[int, int], tuple[bytes, int]]" = OrderedDict()
        self._by_table: dict[int, set[int]] = {}
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------
    def get(self, table_id: int, slot: int) -> bytes | None:
        """The cached block, or ``None`` (which counts as a miss)."""
        with self._lock:
            entry = self._blocks.get((table_id, slot))
            if entry is None:
                self._misses += 1
            else:
                self._hits += 1
                self._blocks.move_to_end((table_id, slot))
        if self.obs.enabled:
            self.obs.inc(
                "lsm.block_cache.hits" if entry is not None else "lsm.block_cache.misses"
            )
        return entry[0] if entry is not None else None

    def put(self, table_id: int, slot: int, block: bytes) -> None:
        """Insert *block*; evicts LRU entries past the byte budget.

        A single block larger than the whole budget is not cached at all
        (admitting it would evict everything for one entry that cannot
        even fit).
        """
        nbytes = len(block) + BLOCK_OVERHEAD
        if nbytes > self.capacity_bytes:
            return
        evicted = 0
        with self._lock:
            key = (table_id, slot)
            previous = self._blocks.pop(key, None)
            if previous is not None:
                self._bytes -= previous[1]
            self._blocks[key] = (block, nbytes)
            self._by_table.setdefault(table_id, set()).add(slot)
            self._bytes += nbytes
            while self._bytes > self.capacity_bytes:
                (old_table, old_slot), (_block, old_bytes) = self._blocks.popitem(last=False)
                self._bytes -= old_bytes
                self._evictions += 1
                evicted += 1
                slots = self._by_table.get(old_table)
                if slots is not None:
                    slots.discard(old_slot)
                    if not slots:
                        del self._by_table[old_table]
        if self.obs.enabled:
            if evicted:
                self.obs.inc("lsm.block_cache.evictions", evicted)
            self.obs.gauge("lsm.block_cache.bytes").set(self._bytes)

    def invalidate(self, table_id: int) -> int:
        """Drop every block of a retired table; returns blocks dropped."""
        with self._lock:
            slots = self._by_table.pop(table_id, None)
            if not slots:
                return 0
            for slot in slots:
                _block, nbytes = self._blocks.pop((table_id, slot))
                self._bytes -= nbytes
            dropped = len(slots)
        if self.obs.enabled:
            self.obs.gauge("lsm.block_cache.bytes").set(self._bytes)
        return dropped

    def clear(self) -> None:
        with self._lock:
            self._blocks.clear()
            self._by_table.clear()
            self._bytes = 0
        if self.obs.enabled:
            self.obs.gauge("lsm.block_cache.bytes").set(0)

    # ------------------------------------------------------------------
    @property
    def bytes_used(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return len(self._blocks)

    def stats(self) -> dict[str, int | float]:
        """Hit/size figures for ``store.stats()`` and the CLI."""
        with self._lock:
            lookups = self._hits + self._misses
            return {
                "capacity_bytes": self.capacity_bytes,
                "bytes": self._bytes,
                "blocks": len(self._blocks),
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "hit_rate": (self._hits / lookups) if lookups else 0.0,
            }

    def __repr__(self) -> str:
        return (
            f"<BlockCache blocks={len(self._blocks)} bytes={self._bytes}"
            f"/{self.capacity_bytes}>"
        )
