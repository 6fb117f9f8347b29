"""The package surfaces: lazy, but indistinguishable from eager re-exports.

Every ``repro`` package re-exports through one ``name -> defining module``
table and the shared PEP 562 helper (``repro._lazy``).  These tests pin
what that must never change -- each package's ``__all__`` (golden lists
taken from the last eager release), the identity of every exported object,
and the behaviours importers rely on (``import *``, ``dir``, ``hasattr``,
``AttributeError``, pickling, racing first accesses).  Anything that must
observe a *first* access runs in a fresh interpreter.
"""

from __future__ import annotations

import importlib

import pytest

import repro

GOLDEN_ALL = {
    "repro": """
        AdaptiveCompressor AesCbcEncryptor AesGcmEncryptor AsyncKeyValue
        BytesSerializer CLOUD_STORE_1 CLOUD_STORE_2 Cache CacheClient
        CacheEntry CacheError CacheServer CircuitBreaker CircuitBreakerStore
        CircuitOpenError CircuitState CloudStoreProfile CoherentClient
        CompressionError Compressor ConfigurationError DSCL DataStoreError
        Deadline DeadlineExceededError DeltaCodec DeltaEncodingError
        DeltaStoreManager EncryptionError Encryptor EnhancedDataStoreClient
        EventLog ExpiringCache FileSystemStore FlakyStore Freshness
        GzipCompressor InMemoryStore InProcessCache InvalidationBus
        JsonSerializer KeyNotFoundError KeyValueStore KeyValueStoreCache
        LSMStore LatencyModel ListenableFuture LzmaCompressor
        MISS MetricsRegistry MonitoredStore NOT_MODIFIED NULL_OBS
        NamespacedStore Observability PerformanceMonitor PickleSerializer
        ReadOnlyStore RealClock RemoteKeyValueStore RemoteProcessCache
        ReplicatedStore RetryingStore RotatingEncryptor SQLStore
        SerializationError Serializer ServerHandle
        SimulatedCloudStore Span StoreConnectionError StoreHealth
        StringSerializer ThreadPool TieredCache TraceCollector Tracer
        TransformingStore TwoPhaseCommitCoordinator
        UniversalDataStoreManager ValuePipeline VirtualClock
        WalPoisonedError WorkloadGenerator WritePolicy ZlibCompressor
        apply_delta atomic_put_many copy_store current_deadline
        deadline_scope derive_key encode_delta generate_key make_policy
        resolve_obs verify_stores
    """,
    "repro.kv": """
        AntiEntropyReport CLOUD_STORE_1 CLOUD_STORE_2 CircuitBreaker
        CircuitBreakerStore CircuitState CloudStoreProfile Deadline
        FileSystemStore FlakyStore InMemoryStore KeyValueStore LSMStore
        MerkleTree NOT_MODIFIED NamespacedStore NotModified
        PartitionedStore QuorumReplicatedStore ReadOnlyStore
        RemoteKeyValueStore ReplicatedStore RetryingStore SQLStore
        SimulatedCloudStore TransformingStore VersionStamp current_deadline
        deadline_scope
    """,
    "repro.caching": """
        BloomFilter BloomFrontedCache Cache CacheEntry CacheStats
        ClockPolicy EvictionPolicy ExpiringCache FIFOPolicy Freshness
        GreedyDualSizePolicy HashRing InProcessCache KeyValueStoreCache
        LFUPolicy LRUPolicy LookupResult MISS Miss RemoteProcessCache
        ShardedCache StackDistanceProfiler TieredCache
        load_cache make_policy save_cache
    """,
    "repro.udsm": """
        AsyncKeyValue CachedReadSpec CodecTiming FutureState HitRateCurve
        ListenableFuture LoadGenerator LoadResult LoadSpec MonitoredStore
        OperationStats PerformanceMonitor RVConfig Request StoreHealth
        SweepPoint SweepResult ThreadPool UniversalDataStoreManager
        WorkloadGenerator compressible_payload random_payload
    """,
    "repro.net": """
        ASYNC_MAX_CLIENTS AsyncCacheServer AsyncServerEngine
        AsyncStoreServer CacheClient CacheServer Clock ClusterAwareClient
        LatencyModel MovedRedirect RealClock ServerHandle StoreServer
        THREADED_MAX_CLIENTS VirtualClock parse_moved probe_fd_budget
    """,
    "repro.lsm": """
        BackgroundScheduler CommitPipeline InlineScheduler LSMStore
        MANIFEST_NAME MISSING Manifest ManualScheduler Memtable OP_DELETE
        OP_PUT SSTable SizeTieredPolicy TOMBSTONE WalRecord WriteAheadLog
        merge_tables write_sstable
    """,
    "repro.cluster": """
        ClusterCoordinator ClusterStoreClient ClusterTopology
        RebalanceReport ShardInfo copy_moved_keys moved_pairs
        purge_stale_keys rebalance
    """,
    "repro.core": """
        DSCL EnhancedDataStoreClient ValuePipeline
        WritePolicy
    """,
    "repro.delta": """
        CopyOp DeltaCodec DeltaStoreManager LiteralOp RollingHash
        apply_delta encode_delta parse_delta serialize_delta
    """,
    "repro.txn": """
        TransactionLog TransactionRecord TransactionState
        TwoPhaseCommitCoordinator atomic_put_many
    """,
    "repro.security": """
        AesCbcEncryptor AesGcmEncryptor Encryptor NullEncryptor
        RotatingEncryptor derive_key generate_key
    """,
    "repro.compression": """
        AdaptiveCompressor Compressor GzipCompressor LzmaCompressor
        NullCompressor ZlibCompressor
    """,
    "repro.consistency": "CoherentClient InvalidationBus",
    "repro.tools": "MigrationReport copy_store verify_stores",
    "repro.obs": """
        Counter DEFAULT_LATENCY_BUCKETS DEFAULT_MAX_BYTES DEFAULT_MAX_EVENTS
        EventLog Gauge Histogram MetricsRegistry NULL_OBS Observability Span
        SpanEvent TraceCollector Tracer resolve_obs
    """,
}

#: Every package except ``repro.obs``, which holds real code and imports eagerly.
LAZY_PACKAGES = sorted(set(GOLDEN_ALL) - {"repro.obs"})


@pytest.mark.parametrize("package", sorted(GOLDEN_ALL))
def test_all_is_unchanged(package):
    module = importlib.import_module(package)
    assert sorted(module.__all__) == GOLDEN_ALL[package].split()
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_table_covers_all_and_names_defining_modules(package):
    module = importlib.import_module(package)
    for name, target in module._EXPORTS.items():
        defining = importlib.import_module(target, package)
        exported = getattr(module, name)
        assert exported is getattr(defining, name), (package, name)
        # The table points at the module that *defines* the name, not at
        # another re-export: classes and functions say where they live.
        home = getattr(exported, "__module__", None)
        if isinstance(exported, type) or callable(exported):
            assert home == defining.__name__, (package, name, home)
        # Resolved once, then a plain global of the package.
        assert module.__dict__[name] is exported


def test_import_repro_loads_nothing_else(fresh_interpreter):
    loaded = fresh_interpreter(
        "import sys, repro\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))"
    )
    assert len(loaded.split()) <= 3, loaded  # repro and repro._lazy


def test_star_import_binds_every_name(fresh_interpreter):
    count = fresh_interpreter(
        "import repro\n"
        "namespace = {}\n"
        "exec('from repro import *', namespace)\n"
        "missing = [n for n in repro.__all__ if n not in namespace]\n"
        "assert not missing, missing\n"
        "from repro.kv.memory import InMemoryStore\n"
        "assert namespace['InMemoryStore'] is InMemoryStore\n"
        "print(len(repro.__all__))"
    )
    assert int(count) == len(repro.__all__)


def test_dir_and_hasattr_before_first_access(fresh_interpreter):
    fresh_interpreter(
        "import sys, repro\n"
        "listing = dir(repro)\n"
        "assert set(repro.__all__) <= set(listing), set(repro.__all__) - set(listing)\n"
        "assert '__version__' in listing and listing == sorted(listing)\n"
        "assert 'repro.kv' not in sys.modules  # dir() resolved nothing\n"
        "assert hasattr(repro, 'SQLStore')\n"
        "assert 'repro.kv.sqlstore' in sys.modules and 'repro.kv.quorum' not in sys.modules\n"
        "assert not hasattr(repro, 'NoSuchName')\n"
    )


def test_unknown_attribute_names_package_and_attribute():
    import repro.kv

    for module in (repro, repro.kv):
        with pytest.raises(AttributeError) as caught:
            module.NoSuchName
        assert repr(module.__name__) in str(caught.value)
        assert "'NoSuchName'" in str(caught.value)
    with pytest.raises(ImportError):
        exec("from repro import NoSuchName")


def test_submodules_still_resolve_as_attributes(fresh_interpreter):
    fresh_interpreter(
        "import repro\n"
        "assert repro.kv.memory.InMemoryStore is repro.InMemoryStore\n"
        "assert repro.obs.metrics.MetricsRegistry is repro.MetricsRegistry\n"
    )


def test_pickle_round_trip_of_a_lazily_exported_class(fresh_interpreter):
    fresh_interpreter(
        "import pickle, repro\n"
        "cls = pickle.loads(pickle.dumps(repro.InMemoryStore))\n"
        "assert cls is repro.InMemoryStore and cls.__module__ == 'repro.kv.memory'\n"
        "profile = pickle.loads(pickle.dumps(repro.CLOUD_STORE_1))\n"
        "assert profile == repro.CLOUD_STORE_1\n"
        "serializer = pickle.loads(pickle.dumps(repro.JsonSerializer()))\n"
        "assert type(serializer) is repro.JsonSerializer\n"
    )


def test_racing_first_access_yields_one_object(fresh_interpreter):
    fresh_interpreter(
        "import sys, threading, repro\n"
        "sys.setswitchinterval(1e-6)\n"
        "barrier = threading.Barrier(2)\n"
        "seen = []\n"
        "def first_access():\n"
        "    barrier.wait(timeout=10)\n"
        "    seen.append(repro.SimulatedCloudStore)\n"
        "threads = [threading.Thread(target=first_access) for _ in range(2)]\n"
        "[t.start() for t in threads]\n"
        "[t.join(timeout=30) for t in threads]\n"
        "assert not any(t.is_alive() for t in threads)\n"
        "from repro.kv.cloudsim import SimulatedCloudStore\n"
        "assert len(seen) == 2 and seen[0] is seen[1] is SimulatedCloudStore, seen\n"
    )
