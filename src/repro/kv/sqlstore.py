"""SQL-backed key-value store.

The paper's evaluation uses "a MySQL database running on the client node
accessed via JDBC", with the UDSM key-value interface implemented on top of
JDBC, and with native SQL still reachable for applications that need it.
This module reproduces that shape on :mod:`sqlite3` (the SQL engine available
offline): the KV contract is implemented over a two-column table, every write
is a real SQL transaction with a commit (so the paper's observation that
"writes involve costly commit operations" reproduces), and :meth:`SQLStore.native`
hands back the DB-API connection plus an :meth:`SQLStore.execute` helper as
the SQL escape hatch.

Keys live in a ``TEXT`` column, which holds valid UTF-8 only: a
surrogate-escaped key (one another client wrote as bytes that are not
UTF-8, see :func:`~repro.kv.interface.encode_key`) is refused with
:class:`~repro.errors.DataStoreError` by every operation that binds it.

sqlite connections are not thread-safe by default; this store serializes all
access through one lock, which matches the single-client-thread usage in the
paper's evaluation while staying safe under the UDSM's thread-pool async
interface.
"""

from __future__ import annotations

import sqlite3
import threading
from typing import Any, Callable, Iterator, Mapping, Sequence

from ..errors import DataStoreError, KeyNotFoundError, StoreClosedError
from ..serialization import Serializer, default_serializer
from .interface import KeyValueStore, content_version

__all__ = ["SQLStore"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS {table} (
    key   TEXT PRIMARY KEY,
    value BLOB NOT NULL
)
"""


class SQLStore(KeyValueStore):
    """Key-value contract over a SQL table, with native SQL passthrough."""

    def __init__(
        self,
        database: str = ":memory:",
        name: str = "sql",
        *,
        table: str = "kv_store",
        serializer: Serializer | None = None,
        synchronous: str = "FULL",
    ) -> None:
        """Open the store.

        :param database: sqlite database path, or ``":memory:"``.
        :param table: table holding the key-value pairs.  Must be a plain
            identifier (validated) because DDL cannot be parameterised.
        :param synchronous: sqlite ``PRAGMA synchronous`` level.  ``FULL``
            gives MySQL-like durable commits (the costly writes the paper
            measures); ``OFF`` is useful for tests.
        """
        if not table.replace("_", "").isalnum():
            raise DataStoreError(f"invalid table name {table!r}")
        self.name = name
        self._table = table
        self._serializer = serializer if serializer is not None else default_serializer()
        self._lock = threading.RLock()
        self._closed = False
        self._conn = sqlite3.connect(database, check_same_thread=False)
        with self._lock:
            self._conn.execute(f"PRAGMA synchronous={synchronous}")
            self._conn.execute(_SCHEMA.format(table=table))
            self._conn.commit()

    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise StoreClosedError(f"store {self.name!r} is closed")

    def _bind(self, run: Callable[..., sqlite3.Cursor], sql: str, params: Any) -> sqlite3.Cursor:
        """``run(sql, params)``, turning sqlite's refusal to bind a key it
        cannot encode into a typed error (and undoing any partial batch)."""
        try:
            return run(sql, params)
        except UnicodeEncodeError as exc:
            self._conn.rollback()
            raise DataStoreError(
                f"store {self.name!r} cannot hold a key that is not valid UTF-8: {exc.reason}"
            ) from None

    def _fetch_payload(self, key: str) -> bytes:
        row = self._bind(
            self._conn.execute, f"SELECT value FROM {self._table} WHERE key = ?", (key,)
        ).fetchone()
        if row is None:
            raise KeyNotFoundError(key, self.name)
        return bytes(row[0])

    # ------------------------------------------------------------------
    def get(self, key: str) -> Any:
        with self._lock:
            self._check_open()
            payload = self._fetch_payload(key)
        return self._serializer.loads(payload)

    def get_with_version(self, key: str) -> tuple[Any, str]:
        with self._lock:
            self._check_open()
            payload = self._fetch_payload(key)
        return self._serializer.loads(payload), content_version(payload)

    def put(self, key: str, value: Any) -> None:
        self.put_with_version(key, value)

    def put_with_version(self, key: str, value: Any) -> str:
        payload = self._serializer.dumps(value)
        with self._lock:
            self._check_open()
            self._bind(
                self._conn.execute,
                f"INSERT INTO {self._table}(key, value) VALUES(?, ?) "
                "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
                (key, payload),
            )
            self._conn.commit()
        return content_version(payload)

    def put_many(self, items: Mapping[str, Any]) -> None:
        """Batch insert in one transaction (one commit for the whole batch)."""
        rows = [(key, self._serializer.dumps(value)) for key, value in items.items()]
        with self._lock:
            self._check_open()
            self._bind(
                self._conn.executemany,
                f"INSERT INTO {self._table}(key, value) VALUES(?, ?) "
                "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
                rows,
            )
            self._conn.commit()

    def delete(self, key: str) -> bool:
        with self._lock:
            self._check_open()
            cursor = self._bind(
                self._conn.execute, f"DELETE FROM {self._table} WHERE key = ?", (key,)
            )
            self._conn.commit()
            return cursor.rowcount > 0

    def keys(self) -> Iterator[str]:
        with self._lock:
            self._check_open()
            rows = self._conn.execute(f"SELECT key FROM {self._table}").fetchall()
        return (row[0] for row in rows)

    def keys_with_prefix(self, key_prefix: str) -> Iterator[str]:
        """Prefix scan on the primary-key index (no full table scan)."""
        escaped = (
            key_prefix.replace("\\", "\\\\").replace("%", "\\%").replace("_", "\\_")
        )
        with self._lock:
            self._check_open()
            rows = self._bind(
                self._conn.execute,
                f"SELECT key FROM {self._table} WHERE key LIKE ? ESCAPE '\\'",
                (escaped + "%",),
            ).fetchall()
        return (row[0] for row in rows)

    def contains(self, key: str) -> bool:
        with self._lock:
            self._check_open()
            row = self._bind(
                self._conn.execute, f"SELECT 1 FROM {self._table} WHERE key = ? LIMIT 1", (key,)
            ).fetchone()
            return row is not None

    def size(self) -> int:
        with self._lock:
            self._check_open()
            row = self._conn.execute(f"SELECT COUNT(*) FROM {self._table}").fetchone()
            return int(row[0])

    def clear(self) -> int:
        with self._lock:
            self._check_open()
            count = self.size()
            self._conn.execute(f"DELETE FROM {self._table}")
            self._conn.commit()
            return count

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._closed = True
                self._conn.close()

    # ------------------------------------------------------------------
    # Native SQL escape hatch (the paper's "customized features")
    # ------------------------------------------------------------------
    def native(self) -> sqlite3.Connection:
        """The underlying DB-API connection for store-specific SQL."""
        self._check_open()
        return self._conn

    def execute(self, sql: str, params: Sequence[Any] = ()) -> list[tuple]:
        """Run an arbitrary SQL statement under the store's lock.

        Returns fetched rows for queries; DML is committed.  This is the
        convenience form of the native escape hatch.
        """
        with self._lock:
            self._check_open()
            cursor = self._conn.execute(sql, params)
            rows = cursor.fetchall()
            self._conn.commit()
            return rows
