"""Thread-safe cache statistics.

Every cache keeps a :class:`CacheStats`; the UDSM's monitoring layer and the
workload generator read them to report hit rates and eviction behaviour.

The counters are :class:`repro.obs.metrics.Counter` objects.  By default
they are private to the cache; :meth:`CacheStats.bind` swaps them for
counters owned by a shared :class:`~repro.obs.metrics.MetricsRegistry`
(named ``<prefix>.hits``, ``<prefix>.misses``, ...), carrying current
values over.  Binding makes the registry the *single* storage for these
numbers -- the cache and the registry can never drift apart or double-count,
because there is only one counter.
"""

from __future__ import annotations

import threading
from typing import NamedTuple

from ..obs.metrics import Counter, MetricsRegistry

__all__ = ["CacheStats", "StatsSnapshot"]

_FIELDS = ("hits", "misses", "puts", "deletes", "evictions", "expired_hits")


class StatsSnapshot(NamedTuple):
    """Immutable copy of a cache's counters at one instant."""

    hits: int
    misses: int
    puts: int
    deletes: int
    evictions: int
    expired_hits: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit; 0.0 when there were no lookups."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0


class CacheStats:
    """Mutable, thread-safe counter set (optionally registry-backed)."""

    def __init__(self) -> None:
        self._bind_lock = threading.Lock()
        self._hits = Counter("hits")
        self._misses = Counter("misses")
        self._puts = Counter("puts")
        self._deletes = Counter("deletes")
        self._evictions = Counter("evictions")
        self._expired_hits = Counter("expired_hits")

    # ------------------------------------------------------------------
    def bind(self, registry: MetricsRegistry, prefix: str) -> "CacheStats":
        """Re-home these counters into *registry* as ``<prefix>.<field>``.

        Values accumulated so far carry over.  Binding is idempotent for
        the same registry and prefix (the registry counters simply stay in
        place); bind before traffic starts -- a racing record during the
        swap itself may land in the retired private counter.
        """
        with self._bind_lock:
            for field in _FIELDS:
                attr = "_" + field
                current: Counter = getattr(self, attr)
                shared = registry.counter(f"{prefix}.{field}")
                if shared is not current:
                    shared.inc(current.value)
                    setattr(self, attr, shared)
        return self

    # ------------------------------------------------------------------
    def record_hit(self) -> None:
        self._hits.inc()

    def record_miss(self) -> None:
        self._misses.inc()

    def record_put(self) -> None:
        self._puts.inc()

    def record_delete(self) -> None:
        self._deletes.inc()

    def record_eviction(self, count: int = 1) -> None:
        self._evictions.inc(count)

    def record_expired_hit(self) -> None:
        """A lookup found an entry whose expiration time had passed."""
        self._expired_hits.inc()

    def snapshot(self) -> StatsSnapshot:
        return StatsSnapshot(
            hits=self._hits.value,
            misses=self._misses.value,
            puts=self._puts.value,
            deletes=self._deletes.value,
            evictions=self._evictions.value,
            expired_hits=self._expired_hits.value,
        )

    def reset(self) -> None:
        for field in _FIELDS:
            getattr(self, "_" + field).reset()

    @property
    def hit_rate(self) -> float:
        return self.snapshot().hit_rate

    def __repr__(self) -> str:
        snap = self.snapshot()
        return (
            f"CacheStats(hits={snap.hits}, misses={snap.misses}, "
            f"puts={snap.puts}, evictions={snap.evictions}, "
            f"hit_rate={snap.hit_rate:.3f})"
        )
