"""Store decorators: the one forwarding surface, its hook, and the
namespacing, read-only, and transforming wrappers."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.errors import (
    CircuitOpenError,
    DataStoreError,
    StoreConnectionError,
    StoreUnavailableError,
)
from repro.kv import (
    NOT_MODIFIED,
    CircuitBreakerStore,
    CircuitState,
    FlakyStore,
    InMemoryStore,
    KeyValueStore,
    LSMStore,
    NamespacedStore,
    PartitionedStore,
    ReadOnlyStore,
    RemoteKeyValueStore,
    RetryingStore,
    TransformingStore,
)
from repro.kv.wrappers import _DelegatingStore
from repro.udsm import MonitoredStore, PerformanceMonitor, UniversalDataStoreManager

# The gate's counting store and per-operation drivers are the matrix's too:
# one definition of "this call reached the inner store as that operation".
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from check_instrumentation import DRIVERS, CountingStore  # noqa: E402

OPERATIONS = _DelegatingStore.OPERATIONS

INTERCEPTORS = {
    "retrying": lambda inner: RetryingStore(inner, sleep=lambda delay: None),
    "circuit": lambda inner: CircuitBreakerStore(inner, failure_threshold=1),
    "flaky": lambda inner: FlakyStore(inner, failure_rate=0.0),
    "partitioned": PartitionedStore,
    "monitored": lambda inner: MonitoredStore(inner, PerformanceMonitor(), name="m"),
}

#: the metric name MonitoredStore documents for each operation
METRIC_NAMES = {
    **{op: op for op in OPERATIONS},
    "get_with_version": "get",
    "put_with_version": "put",
    "get_if_modified": "revalidate",
    "keys_with_prefix": "keys",
}


def _seeded():
    inner = CountingStore()
    inner.put_many({"seed-1": b"value-1", "seed-2": b"value-2"})
    inner.calls.clear()
    return inner


def _failing_once(inner):
    """*inner* behind a link that drops the next operation, whichever it is."""
    link = FlakyStore(inner, failure_rate=0.0)
    link.fail_next(1)
    return link


def test_the_matrix_covers_the_whole_interface():
    public = {
        name
        for name in dir(KeyValueStore)
        if not name.startswith("_") and callable(getattr(KeyValueStore, name))
    }
    # everything else on the interface is lifecycle or derives from these
    assert public - set(OPERATIONS) == {"close", "native", "get_or_default", "check_version"}
    assert set(OPERATIONS) <= set(DRIVERS)


@pytest.mark.parametrize("op", OPERATIONS)
class TestEveryOperationThroughEveryInterceptor:
    """One forwarding definition, one hook: the inner store sees the same
    operation exactly once, and the interceptor's behaviour applies to it --
    batch operations, ``size``, ``keys_with_prefix`` and ``clear`` included."""

    @pytest.mark.parametrize("kind", INTERCEPTORS)
    def test_reaches_the_inner_store_once_as_itself(self, kind, op):
        inner = _seeded()
        expected = DRIVERS[op](_seeded())
        assert DRIVERS[op](INTERCEPTORS[kind](inner)) == expected
        assert inner.calls == [op]

    def test_transient_error_is_retried(self, op):
        inner = _seeded()
        store = INTERCEPTORS["retrying"](_failing_once(inner))
        assert DRIVERS[op](store) == DRIVERS[op](_seeded())
        assert inner.calls == [op]
        assert store.retries == 1

    def test_breaker_counts_the_failure_then_sheds(self, op):
        inner = _seeded()
        store = INTERCEPTORS["circuit"](_failing_once(inner))
        with pytest.raises(StoreConnectionError):
            DRIVERS[op](store)
        assert store.breaker.state is CircuitState.OPEN
        with pytest.raises(CircuitOpenError):
            DRIVERS[op](store)
        assert inner.calls == []

    def test_injected_failure_applies(self, op):
        inner = _seeded()
        store = INTERCEPTORS["flaky"](inner)
        store.fail_next(1)
        with pytest.raises(StoreConnectionError):
            DRIVERS[op](store)
        assert inner.calls == [] and store.injected_failures == 1
        DRIVERS[op](store)
        assert inner.calls == [op] and store.successes == 1

    def test_failure_rates_key_on_the_operation_name(self, op):
        inner = _seeded()
        store = FlakyStore(inner, failure_rate=0.0, failure_rates={op: 1.0})
        with pytest.raises(StoreConnectionError):
            DRIVERS[op](store)
        assert inner.calls == []

    def test_partition_refuses(self, op):
        inner = _seeded()
        store = INTERCEPTORS["partitioned"](inner)
        store.partition()
        with pytest.raises(StoreUnavailableError):
            DRIVERS[op](store)
        assert inner.calls == [] and store.unavailable_ops == 1

    def test_one_monitor_sample_under_the_documented_name(self, op):
        store = INTERCEPTORS["monitored"](_seeded())
        DRIVERS[op](store)
        samples = {key: stats.count for key, stats in store.monitor.snapshot().items()}
        assert samples == {("m", METRIC_NAMES[op]): 1}


class TestHookRules:
    def test_a_key_scan_that_fails_half_way_is_inside_the_hook(self):
        class DiesMidScan(InMemoryStore):
            scans = 0

            def keys(self):
                self.scans += 1
                yield "first"
                if self.scans == 1:
                    raise StoreConnectionError("connection lost mid-scan")
                yield "second"

        retrying = RetryingStore(DiesMidScan(), sleep=lambda delay: None)
        assert list(retrying.keys()) == ["first", "second"]
        assert retrying.retries == 1

        breaker = CircuitBreakerStore(DiesMidScan(), failure_threshold=1)
        with pytest.raises(StoreConnectionError):
            breaker.keys()
        assert breaker.breaker.state is CircuitState.OPEN

    def test_a_retried_batch_is_re_sent_whole_even_from_a_generator(self):
        inner = _seeded()
        store = INTERCEPTORS["retrying"](_failing_once(inner))
        found = store.get_many(key for key in ("seed-1", "seed-2", "absent"))
        assert found == {"seed-1": b"value-1", "seed-2": b"value-2"}
        assert store.retries == 1 and inner.calls == ["get_many"]

    def test_a_batch_is_one_sample_with_the_summed_byte_size(self):
        store = INTERCEPTORS["monitored"](_seeded())
        store.put_many({"a": b"12345", "b": "né", "c": 7})
        stats = store.monitor.stats_for("m", "put_many")
        assert (stats.count, stats.total_bytes) == (1, 5 + 3)

    def test_lifecycle_bypasses_the_hook(self):
        store = PartitionedStore(InMemoryStore())
        store.partition()
        assert store.native() is None
        store.close()


class TestBatchShapeSurvivesTheUdsm:
    """100 keys through ``register()``'s monitored view are one batch call
    each at the backend, not 100 single-key ones."""

    ITEMS = {f"key-{i:03d}": b"x" * 64 for i in range(100)}

    def _drive(self, view):
        view.put_many(self.ITEMS)
        assert view.get_many(self.ITEMS) == self.ITEMS
        assert view.delete_many(list(self.ITEMS)[:50]) == 50
        assert view.clear() == 50

    def test_counting_backend(self):
        inner = CountingStore()
        with UniversalDataStoreManager() as udsm:
            self._drive(udsm.register("counted", inner))
            assert inner.calls == ["put_many", "get_many", "delete_many", "clear"]
            assert {op for _name, op in udsm.monitor.snapshot()} == set(inner.calls)

    def test_lsm_backend_commits_the_wal_once(self, tmp_path):
        lsm = LSMStore(tmp_path / "kv.lsm", fsync=True)
        with UniversalDataStoreManager() as udsm:
            udsm.register("lsm", lsm).put_many(self.ITEMS)
            commits = lsm.stats()["group_commit"]
            assert (commits["batches"], commits["committed"]) == (1, 100)

    def test_remote_backend_sends_one_frame(self, cache_server):
        remote = RemoteKeyValueStore(cache_server.host, cache_server.port)

        def frames():
            return {
                name: int(calls)
                for name, calls in remote.native().stats().items()
                if name.startswith("cmd.") and name.endswith(".calls")
            }

        before = frames()
        with UniversalDataStoreManager() as udsm:
            self._drive(udsm.register("remote", remote))
            sent = {
                name: calls - before.get(name, 0)
                for name, calls in frames().items()
                if name != "cmd.stats.calls" and calls != before.get(name, 0)
            }
        assert sent == {
            "cmd.mset.calls": 1,
            "cmd.mget.calls": 1,
            "cmd.del.calls": 1,
            "cmd.dbsize.calls": 1,  # RemoteKeyValueStore.clear = DBSIZE + FLUSHALL
            "cmd.flushall.calls": 1,
        }


class TestNamespacedStore:
    def test_namespaces_are_isolated(self):
        backend = InMemoryStore()
        users = NamespacedStore(backend, "users")
        orders = NamespacedStore(backend, "orders")
        users.put("1", "alice")
        orders.put("1", "order-one")
        assert users.get("1") == "alice"
        assert orders.get("1") == "order-one"
        assert users.size() == 1

    def test_keys_are_unprefixed(self):
        backend = InMemoryStore()
        ns = NamespacedStore(backend, "app")
        ns.put("alpha", 1)
        assert list(ns.keys()) == ["alpha"]
        assert list(backend.keys()) == ["app:alpha"]

    def test_clear_only_touches_own_namespace(self):
        backend = InMemoryStore()
        a = NamespacedStore(backend, "a")
        b = NamespacedStore(backend, "b")
        a.put("k", 1)
        b.put("k", 2)
        assert a.clear() == 1
        assert b.get("k") == 2

    def test_close_does_not_close_backend(self):
        backend = InMemoryStore()
        NamespacedStore(backend, "ns").close()
        backend.put("still", "open")

    def test_empty_namespace_rejected(self):
        with pytest.raises(DataStoreError):
            NamespacedStore(InMemoryStore(), "")

    def test_batches_map_keys_both_ways_in_one_inner_call(self):
        backend = CountingStore()
        backend.put("other:k", "foreign")
        backend.calls.clear()
        ns = NamespacedStore(backend, "ns")
        ns.put_many({"a": 1, "b": 2})
        assert ns.get_many(["a", "b", "k"]) == {"a": 1, "b": 2}
        assert ns.delete_many(["a", "k"]) == 1
        assert backend.calls == ["put_many", "get_many", "delete_many"]
        assert sorted(backend.keys()) == ["ns:b", "other:k"]

    def test_versioning_through_namespace(self):
        ns = NamespacedStore(InMemoryStore(), "v")
        ns.put("k", b"v1")
        _, version = ns.get_with_version("k")
        assert ns.get_if_modified("k", version) is NOT_MODIFIED


class TestReadOnlyStore:
    def test_reads_pass_through(self):
        backend = InMemoryStore()
        backend.put("k", 42)
        ro = ReadOnlyStore(backend)
        assert ro.get("k") == 42
        assert ro.contains("k")

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda s: s.put("k", 1),
            lambda s: s.put_with_version("k", 1),
            lambda s: s.put_many({"k": 1}),
            lambda s: s.delete("k"),
            lambda s: s.delete_many([]),
            lambda s: s.clear(),
        ],
    )
    def test_mutations_rejected(self, mutate):
        ro = ReadOnlyStore(InMemoryStore())
        with pytest.raises(DataStoreError):
            mutate(ro)


class TestTransformingStore:
    def test_transform_applied_on_both_paths(self):
        backend = InMemoryStore()
        upper = TransformingStore(
            backend,
            encode=lambda v: v.upper(),
            decode=lambda v: v.lower(),
        )
        upper.put("k", "hello")
        assert backend.get("k") == "HELLO"   # stored transformed
        assert upper.get("k") == "hello"     # read back decoded

    def test_get_if_modified_decodes(self):
        backend = InMemoryStore()
        codec = TransformingStore(backend, encode=lambda v: v + 1, decode=lambda v: v - 1)
        codec.put("k", 10)
        _, version = codec.get_with_version("k")
        assert codec.get_if_modified("k", version) is NOT_MODIFIED
        codec.put("k", 20)
        value, _ = codec.get_if_modified("k", version)
        assert value == 20

    def test_inner_property(self):
        backend = InMemoryStore()
        wrapper = TransformingStore(backend, encode=lambda v: v, decode=lambda v: v)
        assert wrapper.inner is backend

    def test_batched_ops_cost_one_inner_call_each(self):
        """N keys through gzip + AES-GCM are one inner batch op (one MGET /
        MSET round trip on a remote store), not N single-key ones."""
        from repro.compression import GzipCompressor
        from repro.core import EnhancedDataStoreClient
        from repro.security import AesGcmEncryptor, generate_key

        class CountingStore(InMemoryStore):
            """Records each entry point; native batch ops like a remote store's."""

            def __init__(self):
                super().__init__(serializer=None)
                self.calls = []

            def get(self, key):
                self.calls.append("get")
                return super().get(key)

            def put(self, key, value):
                self.calls.append("put")
                super().put(key, value)

            def get_many(self, keys):
                self.calls.append("get_many")
                return {k: self._data[k] for k in keys if k in self._data}

            def put_many(self, items):
                self.calls.append("put_many")
                self._data.update(items)

        backend = CountingStore()
        client = EnhancedDataStoreClient(
            backend,
            compressor=GzipCompressor(),
            encryptor=AesGcmEncryptor(generate_key()),
        )
        values = {f"k{i}": {"n": i, "text": "abc" * 50} for i in range(5)}
        client.store.put_many(values)
        assert backend.calls == ["put_many"]
        assert all(isinstance(backend._data[key], bytes) for key in values)

        backend.calls.clear()
        assert client.store.get_many([*values, "absent"]) == values
        assert backend.calls == ["get_many"]

        # The enhanced client's documented promise: misses fetched in ONE call.
        backend.calls.clear()
        assert client.get_many([*values, "absent"]) == values
        assert backend.calls == ["get_many"]
