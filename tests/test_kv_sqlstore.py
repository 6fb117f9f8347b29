"""SQLStore specifics: native SQL escape hatch, batching, durability knob."""

from __future__ import annotations

import sqlite3

import pytest

from repro.errors import DataStoreError, StoreClosedError
from repro.kv import SQLStore
from repro.net.client import CacheClient
from repro.net.protocol import WireError
from repro.net.server import build_server


class TestNativeEscapeHatch:
    def test_native_returns_dbapi_connection(self, sql_store):
        assert isinstance(sql_store.native(), sqlite3.Connection)

    def test_execute_runs_arbitrary_sql(self, sql_store):
        sql_store.put_many({"a": 1, "b": 2, "c": 3})
        rows = sql_store.execute("SELECT COUNT(*) FROM kv_store")
        assert rows == [(3,)]

    def test_execute_supports_parameters(self, sql_store):
        sql_store.put("target", b"x")
        rows = sql_store.execute("SELECT key FROM kv_store WHERE key = ?", ("target",))
        assert rows == [("target",)]

    def test_native_ddl_coexists_with_kv(self, sql_store):
        sql_store.execute("CREATE TABLE custom (id INTEGER PRIMARY KEY, label TEXT)")
        sql_store.execute("INSERT INTO custom(label) VALUES (?)", ("row",))
        sql_store.put("kv-key", "kv-value")
        assert sql_store.execute("SELECT label FROM custom") == [("row",)]
        assert sql_store.get("kv-key") == "kv-value"


class TestKeysThatAreNotUtf8:
    """A TEXT column holds UTF-8 only: a surrogate-escaped key is refused
    with a typed error, not a ``UnicodeEncodeError``."""

    KEY = b"\xff-k".decode("utf-8", "surrogateescape")

    @pytest.mark.parametrize("op", ["put", "get", "contains", "delete", "keys_with_prefix"])
    def test_refused_with_data_store_error(self, sql_store, op):
        args = (self.KEY, b"v") if op == "put" else (self.KEY,)
        with pytest.raises(DataStoreError) as raised:
            getattr(sql_store, op)(*args)
        assert type(raised.value) is DataStoreError

    def test_batch_with_one_such_key_stores_nothing(self, sql_store):
        with pytest.raises(DataStoreError):
            sql_store.put_many({"a": 1, self.KEY: 2, "b": 3})
        assert sql_store.size() == 0
        sql_store.put("c", 4)
        assert list(sql_store.keys()) == ["c"]

    @pytest.mark.parametrize("engine", ["threaded", "async"])
    def test_server_answers_err_and_keeps_the_connection(self, sql_store, engine):
        server = build_server(engine, sql_store)
        try:
            with CacheClient(*server.start()) as client:
                reply = client.call([b"SET", b"\xff-k", b"v"])
                assert isinstance(reply, WireError)
                assert str(reply).startswith("ERR DataStoreError: ")
                assert client.ping()
                client.set(b"k", b"v")
                assert client.get(b"k") == b"v"
        finally:
            server.stop()


class TestConfiguration:
    def test_invalid_table_name_rejected(self):
        with pytest.raises(DataStoreError):
            SQLStore(table="bad; DROP TABLE students")

    def test_custom_table_name(self):
        store = SQLStore(table="my_table_2")
        store.put("k", 1)
        assert store.execute("SELECT COUNT(*) FROM my_table_2") == [(1,)]

    def test_file_backed_database_persists(self, tmp_path):
        path = str(tmp_path / "store.db")
        SQLStore(path).put("k", [1, 2])
        assert SQLStore(path).get("k") == [1, 2]

    def test_closed_store_raises(self):
        store = SQLStore()
        store.close()
        with pytest.raises(StoreClosedError):
            store.put("k", 1)
        with pytest.raises(StoreClosedError):
            store.execute("SELECT 1")

    def test_put_many_is_one_transaction(self, sql_store):
        # All rows visible after the batch; row count matches exactly.
        sql_store.put_many({f"k{i}": i for i in range(100)})
        assert sql_store.size() == 100
