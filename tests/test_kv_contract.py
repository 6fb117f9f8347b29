"""KeyValueStore contract suite, run against every backend.

The UDSM's guarantees rest on every store honouring the same interface
semantics; this suite is the executable form of that contract.  The
``any_store`` fixture parametrises over memory, file-system, SQL,
simulated-cloud, and remote (TCP) backends.
"""

from __future__ import annotations

import pytest

from repro.errors import DataStoreError, KeyNotFoundError
from repro.kv import NOT_MODIFIED, SQLStore


class TestBasicOperations:
    def test_put_then_get_returns_value(self, any_store):
        any_store.put("k", b"value")
        assert any_store.get("k") == b"value"

    def test_get_missing_key_raises(self, any_store):
        with pytest.raises(KeyNotFoundError):
            any_store.get("absent")

    def test_key_not_found_error_is_also_keyerror(self, any_store):
        with pytest.raises(KeyError):
            any_store.get("absent")

    def test_put_overwrites_existing_value(self, any_store):
        any_store.put("k", b"first")
        any_store.put("k", b"second")
        assert any_store.get("k") == b"second"

    def test_none_is_a_storable_value(self, any_store):
        any_store.put("k", None)
        assert any_store.get("k") is None
        assert any_store.contains("k")

    def test_complex_values_roundtrip(self, any_store):
        value = {"nested": [1, 2.5, "three", None], "tuple": (1, 2)}
        any_store.put("k", value)
        assert any_store.get("k") == value

    def test_empty_string_key_works(self, any_store):
        any_store.put("", b"empty-key")
        assert any_store.get("") == b"empty-key"

    def test_unicode_and_awkward_keys(self, any_store):
        for key in ("héllo", "a/b\\c", "sp ace", "dot.", "%41", "日本語"):
            any_store.put(key, key.upper())
            assert any_store.get(key) == key.upper()
        # A key another client wrote as bytes that are not UTF-8, in the
        # surrogate-escaped form ``repro.kv.interface.decode_key`` gives it.
        escaped = "\udcff\udcfe-escaped"
        if isinstance(any_store, SQLStore):  # a TEXT column holds UTF-8 only
            with pytest.raises(DataStoreError):
                any_store.put(escaped, b"v")
            return
        any_store.put(escaped, b"v")
        assert any_store.get(escaped) == b"v"
        assert escaped in set(any_store.keys())

    def test_empty_bytes_value(self, any_store):
        any_store.put("k", b"")
        assert any_store.get("k") == b""


class TestDelete:
    def test_delete_existing_returns_true(self, any_store):
        any_store.put("k", 1)
        assert any_store.delete("k") is True
        assert not any_store.contains("k")

    def test_delete_missing_returns_false(self, any_store):
        assert any_store.delete("absent") is False

    def test_get_after_delete_raises(self, any_store):
        any_store.put("k", 1)
        any_store.delete("k")
        with pytest.raises(KeyNotFoundError):
            any_store.get("k")


class TestContainsAndSize:
    def test_contains_reflects_membership(self, any_store):
        assert not any_store.contains("k")
        any_store.put("k", 1)
        assert any_store.contains("k")

    def test_dunder_contains(self, any_store):
        any_store.put("k", 1)
        assert "k" in any_store
        assert "other" not in any_store

    def test_size_counts_keys(self, any_store):
        assert any_store.size() == 0
        for i in range(5):
            any_store.put(f"k{i}", i)
        assert any_store.size() == 5
        assert len(any_store) == 5

    def test_size_unchanged_by_overwrite(self, any_store):
        any_store.put("k", 1)
        any_store.put("k", 2)
        assert any_store.size() == 1


class TestKeysAndClear:
    def test_keys_lists_every_key(self, any_store):
        expected = {f"key-{i}" for i in range(10)}
        for key in expected:
            any_store.put(key, key)
        assert set(any_store.keys()) == expected

    def test_clear_removes_everything(self, any_store):
        for i in range(4):
            any_store.put(f"k{i}", i)
        assert any_store.clear() == 4
        assert any_store.size() == 0
        assert list(any_store.keys()) == []

    def test_clear_on_empty_store(self, any_store):
        assert any_store.clear() == 0


class TestBatchOperations:
    def test_put_many_and_get_many(self, any_store):
        items = {f"k{i}": i * i for i in range(6)}
        any_store.put_many(items)
        assert any_store.get_many(items.keys()) == items

    def test_get_many_skips_missing(self, any_store):
        any_store.put("present", 1)
        result = any_store.get_many(["present", "absent"])
        assert result == {"present": 1}

    def test_delete_many_counts_existing(self, any_store):
        any_store.put_many({"a": 1, "b": 2})
        assert any_store.delete_many(["a", "b", "c"]) == 2

    def test_get_or_default(self, any_store):
        assert any_store.get_or_default("absent") is None
        assert any_store.get_or_default("absent", 42) == 42
        any_store.put("k", "v")
        assert any_store.get_or_default("k", 42) == "v"


class TestVersioning:
    def test_get_with_version_returns_token(self, any_store):
        any_store.put("k", b"v1")
        value, version = any_store.get_with_version("k")
        assert value == b"v1"
        assert isinstance(version, str) and version

    def test_version_stable_for_unchanged_value(self, any_store):
        any_store.put("k", b"v1")
        _, v1 = any_store.get_with_version("k")
        _, v2 = any_store.get_with_version("k")
        assert v1 == v2

    def test_version_changes_when_value_changes(self, any_store):
        any_store.put("k", b"v1")
        _, before = any_store.get_with_version("k")
        any_store.put("k", b"v2")
        _, after = any_store.get_with_version("k")
        assert before != after

    def test_get_if_modified_not_modified(self, any_store):
        any_store.put("k", b"v1")
        _, version = any_store.get_with_version("k")
        assert any_store.get_if_modified("k", version) is NOT_MODIFIED

    def test_get_if_modified_returns_new_value(self, any_store):
        any_store.put("k", b"v1")
        _, version = any_store.get_with_version("k")
        any_store.put("k", b"v2")
        result = any_store.get_if_modified("k", version)
        assert result is not NOT_MODIFIED
        value, new_version = result
        assert value == b"v2"
        assert new_version != version

    def test_get_if_modified_missing_key_raises(self, any_store):
        with pytest.raises(KeyNotFoundError):
            any_store.get_if_modified("absent", "whatever")

    def test_check_version(self, any_store):
        any_store.put("k", b"v1")
        _, version = any_store.get_with_version("k")
        assert any_store.check_version("k", version)
        any_store.put("k", b"v2")
        assert not any_store.check_version("k", version)

    def test_put_with_version_matches_get(self, any_store):
        token = any_store.put_with_version("k", b"payload")
        if token is not None:
            _, current = any_store.get_with_version("k")
            assert token == current


class TestValueIsolation:
    def test_mutating_after_put_does_not_change_store(self, any_store):
        value = {"list": [1, 2]}
        any_store.put("k", value)
        value["list"].append(3)
        assert any_store.get("k") == {"list": [1, 2]}

    def test_mutating_result_does_not_change_store(self, any_store):
        any_store.put("k", {"list": [1, 2]})
        fetched = any_store.get("k")
        fetched["list"].append(3)
        assert any_store.get("k") == {"list": [1, 2]}
