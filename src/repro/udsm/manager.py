"""The Universal Data Store Manager itself.

The UDSM is a registry: applications register any number of
heterogeneous data stores under names, and get back, per store:

* the synchronous common key-value interface (monitored transparently);
* the asynchronous interface on the shared thread pool;
* enhanced-client construction (integrated caching / encryption /
  compression) with one call;
* the "any store as a cache for any other store" composition (approach 3
  of Section III);
* performance monitoring with persistence to any registered store;
* the workload generator, pre-wired to registered stores.

The native escape hatch is preserved: :meth:`UniversalDataStoreManager.native`
returns whatever backend-specific handle the store exposes (e.g. the DB-API
connection of the SQL store).
"""

from __future__ import annotations

from typing import Any, Iterator

from ..caching.interface import Cache
from ..caching.kvadapter import KeyValueStoreCache
from ..core.enhanced import EnhancedDataStoreClient, WritePolicy
from ..errors import ConfigurationError, DataStoreError
from ..kv.circuit import CircuitBreakerStore
from ..kv.interface import KeyValueStore
from ..obs import Observability, resolve_obs
from .async_api import AsyncKeyValue
from .monitoring import MonitoredStore, PerformanceMonitor, StoreHealth
from .pool import ThreadPool

__all__ = ["UniversalDataStoreManager"]


class UniversalDataStoreManager:
    """Registry of data stores with common sync/async/monitoring features."""

    def __init__(
        self,
        *,
        pool_size: int = 8,
        recent_window: int = 1024,
        obs: Observability | None = None,
    ) -> None:
        """Create an empty manager.

        :param pool_size: threads in the shared async pool (the paper's
            configurable thread-pool size).
        :param recent_window: detailed measurements retained per
            (store, operation) by the monitor.
        :param obs: observability bundle; when set, the performance monitor
            mirrors every measurement into the shared metrics registry
            (``store.<name>.<op>.seconds`` / ``.bytes``) and enhanced
            clients built by :meth:`enhanced_client` inherit the bundle.
        """
        self.obs = resolve_obs(obs)
        self.monitor = PerformanceMonitor(
            recent_window=recent_window,
            registry=self.obs.registry if self.obs.enabled else None,
        )
        self.pool = ThreadPool(pool_size)
        self.health = StoreHealth()
        self._raw: dict[str, KeyValueStore] = {}
        self._monitored: dict[str, MonitoredStore] = {}
        self._closed = False

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    def register(self, name: str, store: KeyValueStore) -> MonitoredStore:
        """Register *store* under *name*; returns its monitored view.

        The UDSM takes ownership: :meth:`close` closes registered stores.
        New clients for the same logical store can replace old ones by
        re-registering the name (the paper: clients evolve; the UDSM allows
        newer clients to replace older ones).
        """
        self._check_open()
        if not name:
            raise ConfigurationError("store name must be non-empty")
        previous = self._raw.get(name)
        if previous is not None and previous is not store:
            previous.close()
        self._raw[name] = store
        monitored = MonitoredStore(store, self.monitor, name=name)
        self._monitored[name] = monitored
        return monitored

    def unregister(self, name: str, *, close: bool = True) -> None:
        """Remove *name*; closes the store unless told otherwise."""
        store = self._raw.pop(name, None)
        self._monitored.pop(name, None)
        self.health.untrack(name)
        if store is not None and close:
            store.close()

    # ------------------------------------------------------------------
    # Fault tolerance: per-store circuit protection and health routing
    # ------------------------------------------------------------------
    def protect(self, name: str, **breaker_options: Any) -> MonitoredStore:
        """Put the store registered as *name* behind a circuit breaker.

        The registered entry is replaced in place: every subsequent
        :meth:`store` / :meth:`enhanced_client` / :meth:`async_store` for
        *name* goes through the breaker, and the store's health (derived
        from the breaker state) becomes visible to :meth:`healthy_stores`
        and :meth:`route`.  Keyword options configure the breaker
        (``failure_threshold``, ``recovery_timeout``, ``clock``...; see
        :class:`~repro.kv.circuit.CircuitBreaker`).  Idempotent in effect:
        protecting an already-protected name layers a second breaker, so
        call it once per store.
        """
        self._check_open()
        inner = self.raw_store(name)
        if self.obs.enabled:
            breaker_options.setdefault("obs", self.obs)
        protected = CircuitBreakerStore(inner, **breaker_options)
        # Not register(): that would close `inner`, which lives on as the
        # breaker's backend.
        self._raw[name] = protected
        monitored = MonitoredStore(protected, self.monitor, name=name)
        self._monitored[name] = monitored
        self.health.track(name, protected.breaker)
        return monitored

    def healthy_stores(self) -> list[str]:
        """Registered names currently accepting traffic.

        Stores without a tracked breaker are presumed healthy; stores whose
        breaker is open are excluded until a recovery probe closes it.
        """
        return [name for name in self.store_names() if self.health.is_healthy(name)]

    def route(self, *candidates: str) -> MonitoredStore:
        """The first healthy store among *candidates* (order = preference).

        With no arguments, considers every registered store in name order.
        Raises :class:`~repro.errors.DataStoreError` when every candidate
        is open-circuited -- callers with a cache can then degrade to
        serving stale instead.
        """
        names = list(candidates) if candidates else self.store_names()
        if not names:
            raise DataStoreError("no stores registered to route to")
        for name in names:
            if self.health.is_healthy(name):
                return self.store(name)
        raise DataStoreError(
            f"all candidate stores are unhealthy (open circuit): {', '.join(names)}"
        )

    def store(self, name: str) -> MonitoredStore:
        """The monitored synchronous interface for *name*."""
        try:
            return self._monitored[name]
        except KeyError:
            raise DataStoreError(f"no data store registered as {name!r}") from None

    def raw_store(self, name: str) -> KeyValueStore:
        """The unmonitored backend registered under *name*."""
        try:
            return self._raw[name]
        except KeyError:
            raise DataStoreError(f"no data store registered as {name!r}") from None

    def store_names(self) -> list[str]:
        return sorted(self._raw)

    def __contains__(self, name: str) -> bool:
        return name in self._raw

    def __iter__(self) -> Iterator[str]:
        return iter(self.store_names())

    def native(self, name: str) -> Any:
        """The backend-specific handle for *name* (``None`` if there isn't one)."""
        return self.raw_store(name).native()

    # ------------------------------------------------------------------
    # Interface factories
    # ------------------------------------------------------------------
    def async_store(self, name: str) -> AsyncKeyValue:
        """Nonblocking interface for *name* on the shared pool."""
        return AsyncKeyValue(self.store(name), self.pool)

    def enhanced_client(
        self,
        name: str,
        *,
        cache: Cache | None = None,
        monitored: bool = True,
        **client_options: Any,
    ) -> EnhancedDataStoreClient:
        """Enhanced (cached) client over the store registered as *name*.

        Keyword options are forwarded to
        :class:`~repro.core.enhanced.EnhancedDataStoreClient` (``default_ttl``,
        ``write_policy``, ``encryptor``, ``compressor``...).  When the UDSM
        has observability enabled the client inherits it (pass ``obs=None``
        explicitly to opt a client out).
        """
        base: KeyValueStore = self.store(name) if monitored else self.raw_store(name)
        if self.obs.enabled:
            client_options.setdefault("obs", self.obs)
        return EnhancedDataStoreClient(base, cache=cache, **client_options)

    def store_as_cache(
        self,
        primary: str,
        cache_store: str,
        *,
        default_ttl: float | None = None,
        write_policy: WritePolicy = WritePolicy.WRITE_THROUGH,
        max_entries: int | None = None,
    ) -> EnhancedDataStoreClient:
        """Approach 3: use registered store *cache_store* as a cache for
        *primary* (e.g. the local file system caching a cloud store)."""
        if primary == cache_store:
            raise ConfigurationError("a store cannot cache itself")
        adapter = KeyValueStoreCache(self.raw_store(cache_store), max_entries=max_entries)
        return EnhancedDataStoreClient(
            self.store(primary),
            cache=adapter,
            default_ttl=default_ttl,
            write_policy=write_policy,
        )

    def replicated(
        self,
        primary: str,
        replicas: "list[str]",
        *,
        name: str = "replicated",
        read_repair: bool = True,
    ) -> "MonitoredStore":
        """Compose registered stores into a primary/replica group and
        register the composite under *name* (monitored like any store)."""
        from ..kv.quorum import ReplicatedStore

        composite = ReplicatedStore(
            self.raw_store(primary),
            [self.raw_store(replica) for replica in replicas],
            name=name,
            read_repair=read_repair,
            owns_members=False,  # the registry owns (and closes) the members
        )
        return self.register(name, composite)

    def quorum(
        self,
        members: "list[str]",
        *,
        read_quorum: int,
        write_quorum: int,
        name: str = "quorum",
        node_id: str = "node-0",
        read_repair: bool = True,
        anti_entropy_every: int | None = None,
    ) -> "MonitoredStore":
        """Compose registered stores into an R+W>N quorum group and
        register the composite under *name* (monitored like any store).

        The group inherits the UDSM's observability bundle, so
        ``kv.quorum.*`` / ``kv.antientropy.*`` metrics land in the shared
        registry; set ``anti_entropy_every=k`` to run a Merkle
        anti-entropy round inline after every *k* quorum writes.
        """
        from ..kv.quorum import QuorumReplicatedStore

        composite = QuorumReplicatedStore(
            [self.raw_store(member) for member in members],
            read_quorum=read_quorum,
            write_quorum=write_quorum,
            name=name,
            node_id=node_id,
            read_repair=read_repair,
            anti_entropy_every=anti_entropy_every,
            owns_members=False,  # the registry owns (and closes) the members
            obs=self.obs if self.obs.enabled else None,
        )
        return self.register(name, composite)

    def cluster(
        self,
        members: "list[str]",
        *,
        name: str = "cluster",
        engine: str = "threaded",
        replicas: int = 64,
    ) -> "MonitoredStore":
        """Serve registered stores as shards of one topology-aware cluster
        and register the smart client under *name* (monitored like any store).

        Each member store gets its own in-process shard server (real TCP,
        engine selectable); the registered composite is a
        :class:`~repro.cluster.ClusterStoreClient`, which hash-routes every
        key straight to its owning shard (see ``docs/cluster.md``).
        Closing the composite (e.g. via :meth:`close`) also stops the shard
        servers; the member stores themselves stay owned by the registry.
        ``cluster.*`` metrics and ``topology_changed``/``rebalance`` events
        land in the shared registry.
        """
        from ..cluster import ClusterCoordinator, ClusterStoreClient

        if not members:
            raise ConfigurationError("a cluster needs at least one member store")
        shared_obs = self.obs if self.obs.enabled else None
        coordinator = ClusterCoordinator(engine=engine, replicas=replicas, obs=shared_obs)
        try:
            for member in members:
                coordinator.add_shard(member, self.raw_store(member))
            composite = ClusterStoreClient(
                coordinator.seeds,
                name=name,
                obs=shared_obs,
                coordinator=coordinator,  # client.close() stops the servers
            )
        except BaseException:
            coordinator.stop()
            raise
        return self.register(name, composite)

    def migrate(self, source: str, destination: str, **options: Any) -> Any:
        """Copy every key from one registered store to another.

        Options are forwarded to :func:`repro.tools.migration.copy_store`;
        returns its report.
        """
        from ..tools.migration import copy_store

        return copy_store(self.raw_store(source), self.raw_store(destination), **options)

    # ------------------------------------------------------------------
    # Monitoring conveniences
    # ------------------------------------------------------------------
    def report(self) -> str:
        """The monitor's latency table."""
        return self.monitor.report()

    def persist_metrics(self, store_name: str, key: str = "udsm-performance") -> None:
        """Persist monitoring summaries into a registered store."""
        self.monitor.persist(self.raw_store(store_name), key)

    def restore_metrics(self, store_name: str, key: str = "udsm-performance") -> None:
        self.monitor.restore(self.raw_store(store_name), key)

    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise DataStoreError("UDSM has been closed")

    def close(self) -> None:
        """Shut the pool down and close every registered store. Idempotent."""
        if self._closed:
            return
        self._closed = True
        self.pool.shutdown()
        for store in self._raw.values():
            store.close()
        self._raw.clear()
        self._monitored.clear()

    def __enter__(self) -> "UniversalDataStoreManager":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"<UniversalDataStoreManager stores={self.store_names()}>"
