"""The common key-value interface (the paper's ``KeyValue<K,V>``).

A key design point of the UDSM (paper Section II.A) is that *every* data
store implements one small key-value interface.  Code written against the
interface -- asynchronous wrappers, performance monitoring, the workload
generator, cache tiering -- then works with every store, and applications can
swap one store for another without source changes.

Keys are strings.  Values are arbitrary Python objects; each backend decides
how to persist them (typically through a pluggable
:class:`~repro.serialization.Serializer`).  Where a key must become bytes --
on the wire, on disk, in a hash -- every layer maps it through
:func:`encode_key` / :func:`decode_key`, so every client and store agrees on
which bytes a key names.

Versioning and revalidation
---------------------------
Section III of the paper describes revalidating an expired cached object the
way an HTTP ``If-Modified-Since`` / ETag request does: the client presents a
version token and the server answers either "not modified" or with a fresh
copy.  The interface exposes this through :meth:`KeyValueStore.get_with_version`
and :meth:`KeyValueStore.get_if_modified`.  Version tokens are opaque strings;
all bundled backends derive them from the stored content so tokens stay
comparable across process restarts.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Iterable, Iterator, Mapping

from ..errors import KeyNotFoundError

__all__ = [
    "KeyValueStore",
    "NotModified",
    "NOT_MODIFIED",
    "content_version",
    "decode_key",
    "encode_key",
]


class NotModified:
    """Singleton sentinel returned by :meth:`KeyValueStore.get_if_modified`.

    Distinct from ``None`` because ``None`` is a legal stored value.
    """

    _instance: "NotModified | None" = None

    def __new__(cls) -> "NotModified":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "<NOT_MODIFIED>"

    def __bool__(self) -> bool:
        return False


#: The singleton "value unchanged since the presented version" sentinel.
NOT_MODIFIED = NotModified()


def content_version(payload: bytes) -> str:
    """Derive an opaque version token from serialized content.

    Content-derived tokens make revalidation work uniformly across backends
    (including ones with no native metadata, like a plain file system) and
    across restarts.  SHA-1 is used for speed; this is a change-detection
    token, not a security boundary.

    ``hashlib`` (OpenSSL's SHA-1, ~5x CPython's built-in one on a KiB) is
    imported here rather than at module level: a serving process, which
    imports this module for the interface, maps OpenSSL only when it
    answers its first ``GETVER``; a client pays one ``sys.modules`` lookup.
    """
    import hashlib

    return hashlib.sha1(payload).hexdigest()


def encode_key(key: str) -> bytes:
    """The bytes a key names: UTF-8, with ``surrogateescape`` restoring the
    original bytes of a key that :func:`decode_key` read from non-UTF-8
    input.  A UTF-8 key's bytes are its plain UTF-8 encoding."""
    return key.encode("utf-8", "surrogateescape")


def decode_key(raw: bytes) -> str:
    """The key some bytes name; lossless for any bytes, and the inverse of
    :func:`encode_key`, so a key one client wrote is addressable by all."""
    return raw.decode("utf-8", "surrogateescape")


class KeyValueStore(ABC):
    """Abstract key-value data store.

    Concrete stores must implement the five primitive operations
    (:meth:`get`, :meth:`put`, :meth:`delete`, :meth:`keys`, :meth:`close`)
    plus :meth:`get_with_version`.  Everything else has a default
    implementation in terms of the primitives; backends override the
    defaults only when they can do better (e.g. a SQL backend batching
    ``put_many`` into one transaction).

    Stores are context managers; leaving the ``with`` block closes the store.

    Keys are any ``str`` whose :func:`encode_key` bytes exist: every valid
    Unicode string, and the surrogate-escaped form of any byte string (a
    key another client wrote as bytes that are not UTF-8).  Every bundled
    store accepts them all except :class:`~repro.kv.sqlstore.SQLStore`,
    whose ``TEXT`` column refuses a surrogate-escaped key with
    :class:`~repro.errors.DataStoreError`.
    """

    #: Human-readable store name, used in monitoring and reports.
    name: str = "store"

    # ------------------------------------------------------------------
    # Primitive operations
    # ------------------------------------------------------------------
    @abstractmethod
    def get(self, key: str) -> Any:
        """Return the value stored under *key*.

        Raises :class:`~repro.errors.KeyNotFoundError` if absent.
        """

    @abstractmethod
    def put(self, key: str, value: Any) -> None:
        """Store *value* under *key*, replacing any existing value."""

    @abstractmethod
    def delete(self, key: str) -> bool:
        """Remove *key*.  Returns ``True`` if it existed."""

    @abstractmethod
    def keys(self) -> Iterator[str]:
        """Iterate over all keys currently in the store (no order promised)."""

    @abstractmethod
    def close(self) -> None:
        """Release resources.  Idempotent."""

    # ------------------------------------------------------------------
    # Versioning / revalidation
    # ------------------------------------------------------------------
    @abstractmethod
    def get_with_version(self, key: str) -> tuple[Any, str]:
        """Return ``(value, version_token)`` for *key*.

        The token changes whenever the stored value changes and is stable
        while it does not.  Raises :class:`~repro.errors.KeyNotFoundError`
        if the key is absent.
        """

    def get_if_modified(self, key: str, version: str) -> tuple[Any, str] | NotModified:
        """Conditional get, the paper's If-Modified-Since analogue.

        If the store's current version of *key* equals *version*, returns
        :data:`NOT_MODIFIED` (and, for remote stores, avoids transferring
        the value).  Otherwise returns ``(value, new_version)``.
        """
        value, current = self.get_with_version(key)
        if current == version:
            return NOT_MODIFIED
        return value, current

    def put_with_version(self, key: str, value: Any) -> str | None:
        """Store *value* and return its new version token when cheap to know.

        Write-through caches use the token to keep cached entries
        revalidatable.  The default implementation returns ``None`` (token
        unknown); backends that already compute a content token during
        ``put`` override this to return it.
        """
        self.put(key, value)
        return None

    def check_version(self, key: str, version: str) -> bool:
        """Return ``True`` if the store's version of *key* equals *version*."""
        return self.get_if_modified(key, version) is NOT_MODIFIED

    # ------------------------------------------------------------------
    # Derived operations (override when the backend can batch)
    # ------------------------------------------------------------------
    def get_or_default(self, key: str, default: Any = None) -> Any:
        """Like :meth:`get` but returns *default* instead of raising."""
        try:
            return self.get(key)
        except KeyNotFoundError:
            return default

    def contains(self, key: str) -> bool:
        """Return ``True`` if *key* is present."""
        try:
            self.get(key)
        except KeyNotFoundError:
            return False
        return True

    def get_many(self, keys: Iterable[str]) -> dict[str, Any]:
        """Fetch several keys; absent keys are simply omitted from the result."""
        result: dict[str, Any] = {}
        for key in keys:
            try:
                result[key] = self.get(key)
            except KeyNotFoundError:
                continue
        return result

    def put_many(self, items: Mapping[str, Any]) -> None:
        """Store every ``(key, value)`` pair in *items*."""
        for key, value in items.items():
            self.put(key, value)

    def delete_many(self, keys: Iterable[str]) -> int:
        """Delete several keys; returns how many existed."""
        return sum(1 for key in keys if self.delete(key))

    def keys_with_prefix(self, prefix: str) -> Iterator[str]:
        """Iterate keys starting with *prefix*.

        The default filters :meth:`keys`; backends with indexed key lookup
        (e.g. SQL ``LIKE`` on the primary key) override it to avoid a full
        scan.
        """
        return (key for key in self.keys() if key.startswith(prefix))

    def size(self) -> int:
        """Number of keys currently stored."""
        return sum(1 for _ in self.keys())

    def clear(self) -> int:
        """Delete everything; returns the number of keys removed."""
        return self.delete_many(list(self.keys()))

    # ------------------------------------------------------------------
    # Native escape hatch
    # ------------------------------------------------------------------
    def native(self) -> Any:
        """Return the backend-specific handle, or ``None`` if there is none.

        The paper stresses that the common interface must not wall users off
        from store-specific features (e.g. SQL queries on a relational
        store).  Backends with a richer native API return it here.
        """
        return None

    # ------------------------------------------------------------------
    # Context-manager protocol
    # ------------------------------------------------------------------
    def __enter__(self) -> "KeyValueStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __contains__(self, key: str) -> bool:
        return self.contains(key)

    def __len__(self) -> int:
        return self.size()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"
