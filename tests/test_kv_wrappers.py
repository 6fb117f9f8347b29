"""Namespacing, read-only, and transforming wrappers."""

from __future__ import annotations

import pytest

from repro.errors import DataStoreError
from repro.kv import (
    NOT_MODIFIED,
    InMemoryStore,
    NamespacedStore,
    ReadOnlyStore,
    TransformingStore,
)


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
