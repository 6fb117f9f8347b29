"""The enhanced data store client -- tight cache integration.

The paper's first integration approach (Section III): the data store
client's own ``get``/``put``/``delete`` transparently consult and maintain a
cache, so applications get caching (plus encryption and compression via the
value pipeline) without making a single explicit DSCL call.  Concretely:

* **read path** -- a fresh cached entry is returned immediately; an
  *expired* entry is revalidated against the origin with a conditional get
  (If-Modified-Since style): on NOT_MODIFIED the entry is re-armed and
  returned without transferring the value, otherwise the fresh value
  replaces it; a miss fetches from the origin and populates the cache.
* **write path** -- configurable consistency action
  (:class:`WritePolicy`): update the cached entry (write-through),
  invalidate it, or leave the cache alone (for applications managing it
  explicitly through the exposed :attr:`EnhancedDataStoreClient.dscl`).

Per-client counters (:class:`ClientCounters`) record how each request was
satisfied, which the caching benchmarks (Figures 11-19) use to verify their
achieved hit rates.
"""

from __future__ import annotations

import enum
import threading
import time
from typing import Any, Callable, Iterable, Iterator

from ..caching.entry import CacheEntry
from ..caching.expiration import Freshness
from ..caching.interface import Cache
from ..compression.interface import Compressor
from ..errors import (
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceededError,
    KeyNotFoundError,
    StoreConnectionError,
)
from ..kv.interface import NOT_MODIFIED, KeyValueStore
from ..obs import Counter, Observability
from ..security.interface import Encryptor
from ..serialization import Serializer
from .dscl import DSCL

__all__ = ["WritePolicy", "ClientCounters", "EnhancedDataStoreClient"]

#: Error types worth serving stale for: the origin is unreachable or out of
#: time.  Semantic errors (key not found...) always propagate.
DEGRADE_ON: tuple[type[Exception], ...] = (
    CircuitOpenError,
    DeadlineExceededError,
    StoreConnectionError,
)


class WritePolicy(enum.Enum):
    """What a write does to the cache (paper: "update (or invalidate)")."""

    #: Store the written value in the cache too (reads hit immediately).
    WRITE_THROUGH = "write-through"
    #: Drop any cached entry; the next read refetches from the origin.
    INVALIDATE = "invalidate"
    #: Touch the origin only; the application manages the cache itself.
    NONE = "none"


def _counter_field(field: str, doc: str | None = None) -> property:
    return property(lambda self: self._by_field[field].value, doc=doc)


class ClientCounters:
    """How the client satisfied its requests (monotonic counters).

    Private to one client even when several share an ``Observability``:
    each field reads its own :class:`~repro.obs.metrics.Counter`.
    """

    cache_hits = _counter_field("cache_hits")
    cache_misses = _counter_field("cache_misses")
    store_reads = _counter_field("store_reads")
    store_writes = _counter_field("store_writes")
    revalidations = _counter_field("revalidations")
    revalidated_not_modified = _counter_field("revalidated_not_modified")
    revalidated_modified = _counter_field("revalidated_modified")
    coalesced_misses = _counter_field(
        "coalesced_misses",
        "misses satisfied by another thread's in-flight fetch (single-flight)",
    )
    stale_serves = _counter_field(
        "stale_serves",
        "expired entries served anyway because the origin was unreachable",
    )

    def __init__(self) -> None:
        self._by_field = {field: Counter(field) for field in _COUNTER_METRICS}

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={c.value}" for f, c in self._by_field.items())
        return f"ClientCounters({fields})"

    @property
    def reads(self) -> int:
        return self.cache_hits + self.cache_misses

    @property
    def hit_rate(self) -> float:
        reads = self.reads
        return self.cache_hits / reads if reads else 0.0


class _NegativeEntry:
    """Singleton marker cached for keys the origin reported absent."""

    _instance: "_NegativeEntry | None" = None

    def __new__(cls) -> "_NegativeEntry":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "<NEGATIVE>"


_NEGATIVE = _NegativeEntry()

#: Registry metric name for each :class:`ClientCounters` field (precomputed
#: so the disabled-observability path never builds strings).
_COUNTER_METRICS = {
    field: f"client.{field}"
    for field in (
        "cache_hits",
        "cache_misses",
        "store_reads",
        "store_writes",
        "revalidations",
        "revalidated_not_modified",
        "revalidated_modified",
        "coalesced_misses",
    )
}
#: Stale serves share the documented cache-plane metric name rather than the
#: ``client.*`` prefix, so every serve-stale layer counts into one series.
_COUNTER_METRICS["stale_serves"] = "cache.stale_served"


class EnhancedDataStoreClient:
    """A data store client with integrated caching, encryption, compression.

    Wraps any :class:`~repro.kv.interface.KeyValueStore`; itself usable as a
    drop-in store for application code (it exposes the same core methods).
    """

    def __init__(
        self,
        store: KeyValueStore,
        *,
        cache: Cache | None = None,
        default_ttl: float | None = None,
        write_policy: WritePolicy = WritePolicy.WRITE_THROUGH,
        revalidate_expired: bool = True,
        negative_ttl: float | None = None,
        coalesce_misses: bool = False,
        serve_stale: bool = False,
        max_stale: float = 300.0,
        stale_revalidator: "Callable[[Callable[[], None]], None] | None" = None,
        serializer: Serializer | None = None,
        compressor: Compressor | None = None,
        encryptor: Encryptor | None = None,
        obs: Observability | None = None,
    ) -> None:
        """Enhance *store*.

        :param cache: the cache to integrate (default: a fresh in-process
            cache).  Pass a :class:`~repro.caching.remote.RemoteProcessCache`
            for the shared / remote configuration.
        :param default_ttl: expiration for cached entries (``None`` = no
            expiry; entries stay until evicted or invalidated).
        :param write_policy: cache action on writes.
        :param revalidate_expired: revalidate expired entries with a
            conditional get instead of refetching (paper Section III).
        :param negative_ttl: when set, "key not found" results are cached
            for this many seconds, so repeated lookups of absent keys don't
            each pay an origin round trip.  Writes clear the negative entry.
        :param coalesce_misses: single-flight protection -- when many
            threads miss the same key at once (a "cache stampede" after an
            expiry or a cold start), only one fetches from the origin; the
            rest wait and reuse its result.  Costs one lock acquisition per
            miss; leave off for single-threaded clients.
        :param serve_stale: graceful degradation -- when a fetch or
            revalidation fails with a *degradable* error (:data:`DEGRADE_ON`:
            circuit open, deadline exhausted, connection lost) and an
            expired entry is still cached, return that entry's value instead
            of raising, provided it expired less than ``max_stale`` seconds
            ago.  A failed :meth:`get_many` batch degrades only when every
            missed key has such an entry.  Each stale serve counts as
            ``cache.stale_served`` and schedules a background revalidation
            of the key.
        :param max_stale: how long past expiry an entry may still be
            served under degradation (seconds).
        :param stale_revalidator: how background revalidation thunks run
            (default: one daemon thread per key); tests inject a collector
            and drain it synchronously.
        :param serializer/compressor/encryptor: value pipeline; when a
            compressor or encryptor is set, everything persisted to the
            origin store is pipeline-encoded bytes.
        :param obs: observability bundle.  When set, every ``get``/``put``
            becomes a ``dscl.*`` root span with nested cache / store /
            pipeline stages, and the :class:`ClientCounters` are mirrored
            as ``client.*`` registry counters (see ``docs/observability.md``).
        """
        self.dscl = DSCL(
            cache=cache,
            default_ttl=default_ttl,
            serializer=serializer,
            compressor=compressor,
            encryptor=encryptor,
            obs=obs,
        )
        self._obs = self.dscl.obs
        self._origin = store
        self._store = self.dscl.wrap_store(store)
        self._write_policy = write_policy
        self._revalidate = revalidate_expired
        self._negative_ttl = negative_ttl
        self._coalesce = coalesce_misses
        self._serve_stale = serve_stale
        self.max_stale = max_stale  # validated by the setter
        self._stale_revalidator = stale_revalidator
        self._stale_revalidating: set[str] = set()
        self._inflight: dict[str, threading.Lock] = {}
        self._inflight_lock = threading.Lock()
        self.counters = ClientCounters()
        #: field -> the ``inc`` of every storage that counts it (the private
        #: counter, plus the registry series when observed); see _count.
        self._incs: dict[str, tuple[Callable[[int], None], ...]] = {}
        self._stale_lock = threading.Lock()
        self.name = f"enhanced({store.name})"
        self._m_store = f"store.{store.name}"
        self._m_store_get = self._m_store + ".get"
        self._m_store_put = self._m_store + ".put"
        self._m_store_revalidate = self._m_store + ".revalidate"

    # ------------------------------------------------------------------
    @property
    def store(self) -> KeyValueStore:
        """The origin store as the client sees it (pipeline applied)."""
        return self._store

    @property
    def origin(self) -> KeyValueStore:
        """The unwrapped origin store."""
        return self._origin

    @property
    def cache(self) -> Cache:
        """The integrated cache (for stats or direct manipulation)."""
        return self.dscl.cache

    @property
    def serve_stale(self) -> bool:
        """Whether degradable fetch errors may be answered from expired
        cache entries.  Writable at runtime (next :meth:`get` onward),
        which is how :class:`repro.obs.anomaly.ServeStaleAction` switches a
        client into degradation while an anomaly is active and restores the
        prior policy when it clears.  The safety rules are unaffected:
        negatives are never served stale, and entries older than
        :attr:`max_stale` stay misses."""
        return self._serve_stale

    @serve_stale.setter
    def serve_stale(self, value: bool) -> None:
        self._serve_stale = bool(value)

    @property
    def max_stale(self) -> float:
        """How long past expiry an entry may still be served (seconds)."""
        return self._max_stale

    @max_stale.setter
    def max_stale(self, value: float) -> None:
        if value < 0:
            raise ConfigurationError("max_stale must be non-negative")
        self._max_stale = value

    @property
    def obs(self) -> "Observability":
        """The observability bundle (``NULL_OBS`` when not enabled)."""
        return self._obs

    # ------------------------------------------------------------------
    # Counter recording (client counters + the shared metrics registry)
    # ------------------------------------------------------------------
    def _count(self, field: str, amount: int = 1) -> None:
        try:
            incs = self._incs[field]
        except KeyError:
            # First use: the registry series is created here, not at
            # construction, so a field never counted never appears in it.
            incs = (self.counters._by_field[field].inc,)
            if self._obs.enabled:
                incs += (self._obs.counter(_COUNTER_METRICS[field]).inc,)
            self._incs[field] = incs
        for inc in incs:
            inc(amount)

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def get(self, key: str) -> Any:
        """Cached read-through get; raises ``KeyNotFoundError`` if absent."""
        with self._obs.stage("dscl.get", metric="client.get", key=key):
            return self._get(key)

    def _get(self, key: str) -> Any:
        lookup = self.dscl.cache_lookup(key)
        if lookup.freshness is Freshness.FRESH:
            assert lookup.entry is not None
            if lookup.entry.value is _NEGATIVE:
                # A fresh negative entry: the origin said "absent" recently.
                self._count("cache_hits")
                raise KeyNotFoundError(key, self.name)
            self._count("cache_hits")
            return lookup.entry.value

        # An expired entry doubles as the degradation parachute: if the
        # origin turns out to be unreachable, it may be served stale.
        stale_entry = lookup.entry if lookup.freshness is Freshness.EXPIRED else None

        if (
            lookup.freshness is Freshness.EXPIRED
            and self._revalidate
            and lookup.entry is not None
            and lookup.entry.version is not None
        ):
            try:
                return self._revalidate_entry(
                    key, lookup.entry.value, lookup.entry.version
                )
            except DEGRADE_ON as exc:
                return self._degrade({key: stale_entry}, exc)[key]

        self._count("cache_misses")
        try:
            if self._coalesce:
                return self._fetch_coalesced(key)
            return self._fetch_and_cache(key)
        except DEGRADE_ON as exc:
            return self._degrade({key: stale_entry}, exc)[key]

    # ------------------------------------------------------------------
    # Graceful degradation (serve-stale)
    # ------------------------------------------------------------------
    def _degrade(
        self, entries: "dict[str, CacheEntry | None]", error: Exception
    ) -> dict[str, Any]:
        """Answer every key from its expired entry instead of raising *error*.

        All or nothing: *error* propagates, and no key is served, when
        serve-stale is off or any key lacks a positive entry that expired
        at most ``max_stale`` seconds ago.
        """
        if not self._serve_stale:
            raise error
        now = time.time()
        ages: dict[str, float] = {}
        for key, entry in entries.items():
            if entry is None or entry.value is _NEGATIVE or entry.expires_at is None:
                raise error
            ages[key] = max(0.0, now - entry.expires_at)
            if ages[key] > self._max_stale:
                raise error
        for key, age in ages.items():
            self._count("stale_serves")
            if self._obs.enabled:
                self._obs.event(
                    "stale_served", key=key, age=round(age, 6), error=type(error).__name__
                )
                self._obs.emit(
                    "stale_served",
                    client=self.name,
                    key=key,
                    age=round(age, 6),
                    error=type(error).__name__,
                )
            self._schedule_stale_revalidation(key)
        return {key: entry.value for key, entry in entries.items()}

    def _schedule_stale_revalidation(self, key: str) -> None:
        """Refresh a stale-served key in the background (deduplicated)."""
        with self._stale_lock:
            if key in self._stale_revalidating:
                return
            self._stale_revalidating.add(key)

        def revalidate() -> None:
            try:
                self._fetch_and_cache(key)
            except Exception:  # noqa: BLE001 - origin still down; keep the entry
                pass
            finally:
                with self._stale_lock:
                    self._stale_revalidating.discard(key)

        if self._stale_revalidator is not None:
            self._stale_revalidator(revalidate)
        else:
            threading.Thread(
                target=revalidate, name=f"{self.name}-stale-revalidate", daemon=True
            ).start()

    def _fetch_coalesced(self, key: str) -> Any:
        """Single-flight fetch: one origin call per key per stampede."""
        with self._inflight_lock:
            lock = self._inflight.setdefault(key, threading.Lock())
        try:
            with lock:
                # Whoever got the lock first has already filled the cache.
                lookup = self.dscl.cache_lookup(key)
                if lookup.freshness is Freshness.FRESH and lookup.entry is not None:
                    if lookup.entry.value is _NEGATIVE:
                        raise KeyNotFoundError(key, self.name)
                    self._count("coalesced_misses")
                    return lookup.entry.value
                return self._fetch_and_cache(key)
        finally:
            with self._inflight_lock:
                if self._inflight.get(key) is lock and not lock.locked():
                    del self._inflight[key]

    def _revalidate_entry(self, key: str, cached_value: Any, version: str) -> Any:
        """Conditional fetch for an expired entry (If-Modified-Since)."""
        self._count("revalidations")
        self._count("store_reads")
        try:
            with self._obs.stage("store.revalidate", metric=self._m_store_revalidate):
                result = self._store.get_if_modified(key, version)
        except KeyNotFoundError:
            # The origin dropped the key; the cached copy is dead too.
            self.dscl.cache_delete(key)
            raise
        if result is NOT_MODIFIED:
            self._count("revalidated_not_modified")
            self.dscl.cache_refresh(key, version=version)
            return cached_value
        self._count("revalidated_modified")
        value, new_version = result
        self.dscl.cache_put(key, value, version=new_version)
        return value

    def _fetch_and_cache(self, key: str) -> Any:
        self._count("store_reads")
        try:
            with self._obs.stage("store.get", metric=self._m_store_get):
                value, version = self._store.get_with_version(key)
        except KeyNotFoundError:
            self._cache_absent(key)
            raise
        self.dscl.cache_put(key, value, version=version)
        return value

    def _cache_absent(self, key: str) -> None:
        """The origin says *key* is absent: cache a negative entry, or drop
        any expired copy so that it is never served stale."""
        if self._negative_ttl is not None:
            self.dscl.cache_put(key, _NEGATIVE, ttl=self._negative_ttl)
        else:
            self.dscl.cache_delete(key)

    def get_or_default(self, key: str, default: Any = None) -> Any:
        try:
            return self.get(key)
        except KeyNotFoundError:
            return default

    def get_many(self, keys: "Iterable[str]") -> dict[str, Any]:
        """Batched read-through: cached keys answer locally, the misses are
        fetched from the origin in ONE ``get_many`` call (one MGET round
        trip on remote stores) and cached.  Absent keys are omitted.

        Under ``serve_stale``, a batch failing with a degradable error
        answers each missed key from its expired entry, or re-raises the
        error when any missed key has none within ``max_stale``.
        """
        with self._obs.stage("dscl.get_many", metric="client.get_many"):
            result: dict[str, Any] = {}
            # missed key -> its expired entry (the degradation parachute)
            misses: dict[str, CacheEntry | None] = {}
            for key in keys:
                lookup = self.dscl.cache_lookup(key)
                if lookup.freshness is Freshness.FRESH and lookup.entry is not None:
                    if lookup.entry.value is _NEGATIVE:
                        self._count("cache_hits")
                        continue  # known-absent
                    self._count("cache_hits")
                    result[key] = lookup.entry.value
                else:
                    misses[key] = (
                        lookup.entry if lookup.freshness is Freshness.EXPIRED else None
                    )
            if misses:
                self._count("cache_misses", len(misses))
                self._count("store_reads")
                try:
                    with self._obs.stage("store.get_many", metric=self._m_store_get):
                        fetched = self._store.get_many(list(misses))
                except DEGRADE_ON as exc:
                    result.update(self._degrade(misses, exc))
                    return result
                for key, value in fetched.items():
                    self.dscl.cache_put(key, value)
                    result[key] = value
                for key in misses:
                    if key not in fetched:
                        self._cache_absent(key)
            return result

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def put(self, key: str, value: Any, *, ttl: float | None | type(...) = ...) -> None:
        """Write to the origin, then apply the configured cache action.

        :param ttl: cache lifetime for this entry under write-through;
            omitted = the client's ``default_ttl``, ``None`` = never expire.
        """
        with self._obs.stage("dscl.put", metric="client.put", key=key):
            self._count("store_writes")
            with self._obs.stage("store.put", metric=self._m_store_put):
                version = self._store.put_with_version(key, value)
            if self._write_policy is WritePolicy.WRITE_THROUGH:
                self.dscl.cache_put(key, value, ttl=ttl, version=version)
            elif self._write_policy is WritePolicy.INVALIDATE:
                self.dscl.cache_delete(key)
            # WritePolicy.NONE: cache untouched by design.

    def delete(self, key: str) -> bool:
        """Delete from the origin and drop any cached copy."""
        with self._obs.stage("dscl.delete", metric="client.delete", key=key):
            self._count("store_writes")
            self.dscl.cache_delete(key)
            return self._store.delete(key)

    # ------------------------------------------------------------------
    # Pass-throughs
    # ------------------------------------------------------------------
    def contains(self, key: str) -> bool:
        """Membership; a fresh cached entry answers without an origin call."""
        lookup = self.dscl.cache_lookup(key)
        if lookup.freshness is Freshness.FRESH:
            assert lookup.entry is not None
            return lookup.entry.value is not _NEGATIVE
        return self._store.contains(key)

    def keys(self) -> Iterator[str]:
        return self._store.keys()

    def invalidate(self, key: str) -> bool:
        """Drop the cached entry only (the origin is untouched)."""
        with self._obs.stage("dscl.invalidate", metric="client.invalidate", key=key):
            return self.dscl.cache_delete(key)

    def invalidate_all(self) -> int:
        return self.dscl.cache_clear()

    def close(self) -> None:
        self.dscl.cache.close()
        self._store.close()

    def __enter__(self) -> "EnhancedDataStoreClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"<EnhancedDataStoreClient store={self._origin.name!r} "
            f"cache={self.dscl.cache.name!r} policy={self._write_policy.value}>"
        )
