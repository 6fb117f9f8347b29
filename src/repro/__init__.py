"""repro -- enhanced data store clients and a Universal Data Store Manager.

A from-scratch Python reproduction of "Providing Enhanced Functionality for
Data Store Clients" (Arun Iyengar, ICDE 2017): a Data Store Client Library
(DSCL) adding integrated caching, encryption, compression, and delta
encoding to any key-value data store, plus a Universal Data Store Manager
(UDSM) giving applications a common synchronous *and* asynchronous interface
to many heterogeneous stores, with performance monitoring and a workload
generator.

Quickstart::

    from repro import UniversalDataStoreManager, InMemoryStore

    with UniversalDataStoreManager() as udsm:
        udsm.register("mem", InMemoryStore())
        store = udsm.store("mem")
        store.put("greeting", "hello")
        future = udsm.async_store("mem").get("greeting")
        print(future.result())

See README.md for the architecture overview and DESIGN.md for the paper
mapping.
"""

from typing import TYPE_CHECKING

from ._lazy import lazy_exports

if TYPE_CHECKING:
    from .errors import (
        CacheError,
        CircuitOpenError,
        CompressionError,
        ConfigurationError,
        DataStoreError,
        DeadlineExceededError,
        DeltaEncodingError,
        EncryptionError,
        KeyNotFoundError,
        SerializationError,
        StoreConnectionError,
        WalPoisonedError,
    )
    from .serialization import (
        BytesSerializer,
        JsonSerializer,
        PickleSerializer,
        Serializer,
        StringSerializer,
    )
    from .kv import (
        CLOUD_STORE_1,
        CLOUD_STORE_2,
        NOT_MODIFIED,
        CircuitBreaker,
        CircuitBreakerStore,
        CircuitState,
        CloudStoreProfile,
        Deadline,
        FileSystemStore,
        FlakyStore,
        InMemoryStore,
        KeyValueStore,
        LSMStore,
        NamespacedStore,
        ReadOnlyStore,
        RemoteKeyValueStore,
        ReplicatedStore,
        RetryingStore,
        SimulatedCloudStore,
        SQLStore,
        TransformingStore,
        current_deadline,
        deadline_scope,
    )
    from .net import CacheClient, CacheServer, LatencyModel, RealClock, ServerHandle, VirtualClock
    from .caching import (
        MISS,
        Cache,
        CacheEntry,
        ExpiringCache,
        Freshness,
        InProcessCache,
        KeyValueStoreCache,
        RemoteProcessCache,
        TieredCache,
        make_policy,
    )
    from .security import (
        AesCbcEncryptor,
        AesGcmEncryptor,
        Encryptor,
        RotatingEncryptor,
        derive_key,
        generate_key,
    )
    from .compression import (
        AdaptiveCompressor,
        Compressor,
        GzipCompressor,
        LzmaCompressor,
        ZlibCompressor,
    )
    from .obs import (
        NULL_OBS,
        EventLog,
        MetricsRegistry,
        Observability,
        Span,
        TraceCollector,
        Tracer,
        resolve_obs,
    )
    from .tools import copy_store, verify_stores
    from .delta import DeltaCodec, DeltaStoreManager, apply_delta, encode_delta
    from .core import DSCL, EnhancedDataStoreClient, ValuePipeline, WritePolicy
    from .txn import TwoPhaseCommitCoordinator, atomic_put_many
    from .consistency import CoherentClient, InvalidationBus
    from .udsm import (
        AsyncKeyValue,
        ListenableFuture,
        MonitoredStore,
        PerformanceMonitor,
        StoreHealth,
        ThreadPool,
        UniversalDataStoreManager,
        WorkloadGenerator,
    )

__version__ = "1.0.0"

#: name -> defining module; resolved on first access (see ``repro._lazy``).
_EXPORTS = {
    "DataStoreError": ".errors",
    "KeyNotFoundError": ".errors",
    "StoreConnectionError": ".errors",
    "SerializationError": ".errors",
    "EncryptionError": ".errors",
    "CompressionError": ".errors",
    "DeltaEncodingError": ".errors",
    "CacheError": ".errors",
    "ConfigurationError": ".errors",
    "CircuitOpenError": ".errors",
    "DeadlineExceededError": ".errors",
    "WalPoisonedError": ".errors",
    "Serializer": ".serialization",
    "PickleSerializer": ".serialization",
    "JsonSerializer": ".serialization",
    "BytesSerializer": ".serialization",
    "StringSerializer": ".serialization",
    "KeyValueStore": ".kv.interface",
    "InMemoryStore": ".kv.memory",
    "FileSystemStore": ".kv.filesystem",
    "SQLStore": ".kv.sqlstore",
    "SimulatedCloudStore": ".kv.cloudsim",
    "LSMStore": ".lsm.store",
    "CloudStoreProfile": ".kv.cloudsim",
    "CLOUD_STORE_1": ".kv.cloudsim",
    "CLOUD_STORE_2": ".kv.cloudsim",
    "RemoteKeyValueStore": ".kv.remote",
    "NamespacedStore": ".kv.wrappers",
    "ReadOnlyStore": ".kv.wrappers",
    "TransformingStore": ".kv.wrappers",
    "NOT_MODIFIED": ".kv.interface",
    "FlakyStore": ".kv.chaos",
    "RetryingStore": ".kv.resilience",
    "ReplicatedStore": ".kv.quorum",
    "CircuitBreaker": ".kv.circuit",
    "CircuitBreakerStore": ".kv.circuit",
    "CircuitState": ".kv.circuit",
    "Deadline": ".kv.deadline",
    "deadline_scope": ".kv.deadline",
    "current_deadline": ".kv.deadline",
    "StoreHealth": ".udsm.monitoring",
    "LatencyModel": ".net.latency",
    "RealClock": ".net.latency",
    "VirtualClock": ".net.latency",
    "CacheServer": ".net.server",
    "CacheClient": ".net.client",
    "ServerHandle": ".net.server",
    "Cache": ".caching.interface",
    "MISS": ".caching.interface",
    "CacheEntry": ".caching.entry",
    "InProcessCache": ".caching.inprocess",
    "RemoteProcessCache": ".caching.remote",
    "TieredCache": ".caching.tiered",
    "KeyValueStoreCache": ".caching.kvadapter",
    "ExpiringCache": ".caching.expiration",
    "Freshness": ".caching.expiration",
    "make_policy": ".caching.policies",
    "Encryptor": ".security.interface",
    "AesGcmEncryptor": ".security.aes",
    "AesCbcEncryptor": ".security.aes",
    "generate_key": ".security.keys",
    "derive_key": ".security.keys",
    "RotatingEncryptor": ".security.rotation",
    "Compressor": ".compression.interface",
    "GzipCompressor": ".compression.codecs",
    "ZlibCompressor": ".compression.codecs",
    "LzmaCompressor": ".compression.codecs",
    "AdaptiveCompressor": ".compression.adaptive",
    "copy_store": ".tools.migration",
    "verify_stores": ".tools.migration",
    "DeltaCodec": ".delta.encoder",
    "DeltaStoreManager": ".delta.manager",
    "encode_delta": ".delta.encoder",
    "apply_delta": ".delta.encoder",
    "DSCL": ".core.dscl",
    "ValuePipeline": ".core.pipeline",
    "EnhancedDataStoreClient": ".core.enhanced",
    "WritePolicy": ".core.enhanced",
    "TwoPhaseCommitCoordinator": ".txn.twophase",
    "atomic_put_many": ".txn.twophase",
    "InvalidationBus": ".consistency.bus",
    "CoherentClient": ".consistency.coherent",
    "EventLog": ".obs.events",
    "Observability": ".obs",
    "MetricsRegistry": ".obs.metrics",
    "Span": ".obs.tracing",
    "Tracer": ".obs.tracing",
    "TraceCollector": ".obs.tracing",
    "NULL_OBS": ".obs",
    "resolve_obs": ".obs",
    "UniversalDataStoreManager": ".udsm.manager",
    "AsyncKeyValue": ".udsm.async_api",
    "ListenableFuture": ".udsm.futures",
    "ThreadPool": ".udsm.pool",
    "PerformanceMonitor": ".udsm.monitoring",
    "MonitoredStore": ".udsm.monitoring",
    "WorkloadGenerator": ".udsm.workload",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
