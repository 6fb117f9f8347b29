"""Expiration-time management above the cache (paper Section III).

The DSCL -- not the underlying cache -- owns expiration, for the two reasons
the paper gives:

1. not every cache supports expiration times, and one that does not can
   still implement the ``Cache`` interface;
2. caches that *do* support TTLs typically purge expired entries, but an
   expired entry is not necessarily obsolete -- the client may be able to
   cheaply *revalidate* it against the origin (like an HTTP GET with
   ``If-Modified-Since``) and keep using it, saving a full transfer.

:class:`ExpiringCache` therefore wraps any :class:`~repro.caching.interface.Cache`
and stores :class:`~repro.caching.entry.CacheEntry` records.  A lookup
reports one of three freshness states:

* ``FRESH``   -- entry present and unexpired: use it.
* ``EXPIRED`` -- entry present but past its expiration time: do not return
  it to the application until revalidated; the entry (and its version
  token) is handed back so the caller can revalidate.
* ``MISS``    -- nothing cached.
"""

from __future__ import annotations

import enum
import time
from typing import Any, Iterator, NamedTuple

from ..errors import ConfigurationError
from .entry import CacheEntry
from .interface import MISS, Cache

__all__ = ["Freshness", "LookupResult", "ExpiringCache"]


class Freshness(enum.Enum):
    """Freshness classification of a cache lookup."""

    FRESH = "fresh"
    EXPIRED = "expired"
    MISS = "miss"


class LookupResult(NamedTuple):
    """Outcome of :meth:`ExpiringCache.lookup` (immutable; a tuple so that
    building one per lookup costs an allocation, not two ``__setattr__``)."""

    freshness: Freshness
    entry: CacheEntry | None = None

    @property
    def hit(self) -> bool:
        """True only for a *fresh* hit."""
        return self.freshness is Freshness.FRESH

    @property
    def value(self) -> Any:
        """The fresh value; raises if this was not a fresh hit."""
        if self.freshness is not Freshness.FRESH or self.entry is None:
            raise LookupError(f"no fresh value (state={self.freshness.value})")
        return self.entry.value


_MISS_RESULT = LookupResult(Freshness.MISS, None)


class ExpiringCache:
    """Expiration manager over any DSCL cache.

    This is deliberately *not* a :class:`Cache` subclass: its lookups return
    rich :class:`LookupResult` objects rather than bare values, because the
    expired-but-revalidatable state has no representation in the plain
    interface.  The simple ``get``/``put`` facade is still provided for
    callers that treat expired entries as misses.
    """

    def __init__(self, cache: Cache, *, default_ttl: float | None = None) -> None:
        """Wrap *cache*.

        :param default_ttl: TTL in seconds applied when ``put`` is called
            without one (``None`` = entries never expire by default).
        """
        if default_ttl is not None and default_ttl <= 0:
            raise ConfigurationError("default_ttl must be positive or None")
        self._cache = cache
        self._default_ttl = default_ttl

    @property
    def cache(self) -> Cache:
        """The wrapped cache (statistics live here)."""
        return self._cache

    # ------------------------------------------------------------------
    def put(
        self,
        key: str,
        value: Any,
        *,
        ttl: float | None | type(...) = ...,
        version: str | None = None,
        now: float | None = None,
    ) -> CacheEntry:
        """Cache *value* with expiration metadata; returns the entry stored.

        :param ttl: seconds until expiry; ``None`` = never; omitted = use
            the configured default.
        :param version: origin version token enabling revalidation later.
        """
        effective_ttl = self._default_ttl if ttl is ... else ttl
        if effective_ttl is not None and effective_ttl <= 0:
            raise ConfigurationError("ttl must be positive or None")
        current = time.time() if now is None else now
        entry = CacheEntry(
            value=value,
            expires_at=None if effective_ttl is None else current + effective_ttl,
            version=version,
            cached_at=current,
        )
        self._cache.put(key, entry)
        return entry

    def lookup(self, key: str, *, now: float | None = None) -> LookupResult:
        """Classify the cached state of *key* without discarding anything."""
        entry = self._cache.get(key)
        if entry is MISS:
            return _MISS_RESULT
        if not isinstance(entry, CacheEntry):
            # Someone bypassed the manager and cached a bare value; treat it
            # as a fresh, never-expiring entry rather than erroring.
            entry = CacheEntry(value=entry)
        if entry.is_expired(now):
            self._cache.stats.record_expired_hit()
            return LookupResult(Freshness.EXPIRED, entry)
        return LookupResult(Freshness.FRESH, entry)

    def refresh(
        self,
        key: str,
        *,
        ttl: float | None | type(...) = ...,
        version: str | None = None,
        now: float | None = None,
    ) -> CacheEntry | None:
        """Re-arm an (expired) entry after successful revalidation.

        Keeps the cached value, restarts its TTL, and records the version
        the origin confirmed.  Returns the refreshed entry, or ``None`` if
        the entry vanished (e.g. evicted) in the meantime.
        """
        entry = self._cache.get_quiet(key)
        if entry is MISS or not isinstance(entry, CacheEntry):
            return None
        effective_ttl = self._default_ttl if ttl is ... else ttl
        refreshed = entry.refreshed(ttl=effective_ttl, version=version, now=now)
        self._cache.put(key, refreshed)
        return refreshed

    # ------------------------------------------------------------------
    # Plain facade: expired == miss
    # ------------------------------------------------------------------
    def get(self, key: str, *, now: float | None = None) -> Any:
        """Return the fresh value or :data:`MISS` (expired counts as miss)."""
        result = self.lookup(key, now=now)
        return result.entry.value if result.hit and result.entry else MISS

    def delete(self, key: str) -> bool:
        return self._cache.delete(key)

    def clear(self) -> int:
        return self._cache.clear()

    def size(self) -> int:
        return self._cache.size()

    def keys(self) -> Iterator[str]:
        return self._cache.keys()

    def purge_expired(self, *, now: float | None = None) -> int:
        """Explicitly drop expired entries (e.g. under memory pressure).

        The paper keeps expired entries around by default; this is the
        opt-in reclamation knob.  Returns the number purged.
        """
        current = time.time() if now is None else now
        purged = 0
        for key in list(self._cache.keys()):
            entry = self._cache.get_quiet(key)
            if isinstance(entry, CacheEntry) and entry.is_expired(current):
                if self._cache.delete(key):
                    purged += 1
        return purged
