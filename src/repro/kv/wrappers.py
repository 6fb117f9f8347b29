"""Composable wrappers over any :class:`~repro.kv.interface.KeyValueStore`.

Because every feature in the UDSM is written against the key-value interface,
cross-cutting behaviours can be added by wrapping rather than by modifying
backends.  These wrappers are used throughout the library and are public API:

* :class:`NamespacedStore`  -- prefix isolation, so several logical stores
  (e.g. application data and persisted monitoring records) can share one
  physical backend without key collisions.
* :class:`ReadOnlyStore`    -- rejects mutation; useful for handing a store
  to untrusted analysis code.
* :class:`TransformingStore`-- applies an encode/decode pair (encryption,
  compression, any codec) around the inner store, which is the "loosely
  coupled" DSCL integration style from Section II.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Mapping

from ..errors import DataStoreError
from .interface import KeyValueStore, NotModified

__all__ = ["NamespacedStore", "ReadOnlyStore", "TransformingStore"]


def _scan(scan: Callable[..., Iterable[str]], *args: Any) -> list[str]:
    """Run a key scan to completion, so it happens inside the hook."""
    return list(scan(*args))


class _DelegatingStore(KeyValueStore):
    """Forwards every data operation to ``self._inner`` through one hook.

    Each operation in :attr:`OPERATIONS` reaches the inner store as the
    *same* operation, exactly once, through :meth:`_invoke` -- a batch stays
    a batch, so to an interceptor it is one attempt, one breaker outcome,
    one injected roll, one partition check and one monitor sample.  A key
    scan is materialised inside the hook, so a failure half-way through it
    is retried, counted, injected, refused or timed like any other (at the
    cost of buffering the key list); batch keys are materialised before it,
    so a retry re-sends the whole idempotent batch, not a spent iterator.
    ``close``/``native`` bypass the hook: releasing local resources must
    work while the backend is partitioned or its circuit is open.
    """

    #: The data operations of the interface, i.e. the names ``_invoke`` sees.
    OPERATIONS = (
        "get", "put", "delete", "contains", "keys", "keys_with_prefix", "size",
        "clear", "get_with_version", "get_if_modified", "put_with_version",
        "get_many", "put_many", "delete_many",
    )

    def __init__(self, inner: KeyValueStore, name: str | None = None) -> None:
        self._inner = inner
        self.name = name if name is not None else inner.name

    @property
    def inner(self) -> KeyValueStore:
        """The wrapped store."""
        return self._inner

    def _invoke(self, op: str, method: Callable[..., Any], *args: Any) -> Any:
        """The interception point: ``method(*args)`` performs *op* on the
        inner store.  Interceptors override this and nothing else."""
        return method(*args)

    def get(self, key: str) -> Any:
        return self._invoke("get", self._inner.get, key)

    def put(self, key: str, value: Any) -> None:
        self._invoke("put", self._inner.put, key, value)

    def delete(self, key: str) -> bool:
        return self._invoke("delete", self._inner.delete, key)

    def contains(self, key: str) -> bool:
        return self._invoke("contains", self._inner.contains, key)

    def keys(self) -> Iterator[str]:
        return iter(self._invoke("keys", _scan, self._inner.keys))

    def keys_with_prefix(self, prefix: str) -> Iterator[str]:
        return iter(
            self._invoke("keys_with_prefix", _scan, self._inner.keys_with_prefix, prefix)
        )

    def size(self) -> int:
        return self._invoke("size", self._inner.size)

    def clear(self) -> int:
        return self._invoke("clear", self._inner.clear)

    def get_with_version(self, key: str) -> tuple[Any, str]:
        return self._invoke("get_with_version", self._inner.get_with_version, key)

    def get_if_modified(self, key: str, version: str) -> tuple[Any, str] | NotModified:
        return self._invoke("get_if_modified", self._inner.get_if_modified, key, version)

    def put_with_version(self, key: str, value: Any) -> str | None:
        return self._invoke("put_with_version", self._inner.put_with_version, key, value)

    def get_many(self, keys: Iterable[str]) -> dict[str, Any]:
        return self._invoke("get_many", self._inner.get_many, list(keys))

    def put_many(self, items: Mapping[str, Any]) -> None:
        self._invoke("put_many", self._inner.put_many, items)

    def delete_many(self, keys: Iterable[str]) -> int:
        return self._invoke("delete_many", self._inner.delete_many, list(keys))

    def close(self) -> None:
        self._inner.close()

    def native(self) -> Any:
        return self._inner.native()


class NamespacedStore(_DelegatingStore):
    """Key-prefix isolation over a shared backend."""

    def __init__(self, inner: KeyValueStore, namespace: str, *, separator: str = ":") -> None:
        if not namespace:
            raise DataStoreError("namespace must be non-empty")
        super().__init__(inner, name=f"{inner.name}/{namespace}")
        self._prefix = namespace + separator

    def _wrap(self, key: str) -> str:
        return self._prefix + key

    def _unwrap(self, stored_key: str) -> str:
        return stored_key[len(self._prefix):]

    def _invoke(self, op: str, method: Callable[..., Any], key: str, *args: Any) -> Any:
        # Only single-key operations reach the hook -- every scan and batch
        # is overridden below -- and they all take the key first.  One added
        # to the interface is namespaced too instead of leaking past it.
        return method(self._wrap(key), *args)

    def keys(self) -> Iterator[str]:
        return self.keys_with_prefix("")

    def keys_with_prefix(self, prefix: str) -> Iterator[str]:
        for stored_key in self._inner.keys_with_prefix(self._prefix + prefix):
            yield self._unwrap(stored_key)

    def size(self) -> int:
        return sum(1 for _ in self.keys())

    def get_many(self, keys: Iterable[str]) -> dict[str, Any]:
        found = self._inner.get_many([self._wrap(key) for key in keys])
        return {self._unwrap(stored_key): value for stored_key, value in found.items()}

    def put_many(self, items: Mapping[str, Any]) -> None:
        self._inner.put_many({self._wrap(key): value for key, value in items.items()})

    def delete_many(self, keys: Iterable[str]) -> int:
        return self._inner.delete_many([self._wrap(key) for key in keys])

    def clear(self) -> int:
        return self.delete_many(list(self.keys()))

    def close(self) -> None:
        # Deliberately do NOT close the shared backend: other namespaces
        # may still be using it.  The owner of the backend closes it.
        pass


class ReadOnlyStore(_DelegatingStore):
    """Rejects every mutating operation with :class:`DataStoreError`."""

    #: Allow-list, so an operation added to the interface is refused until
    #: someone decides it is a read.
    _READS = frozenset(
        {"get", "contains", "keys", "keys_with_prefix", "size",
         "get_with_version", "get_if_modified", "get_many"}
    )

    def _invoke(self, op: str, method: Callable[..., Any], *args: Any) -> Any:
        if op not in self._READS:
            raise DataStoreError(f"store {self.name!r} is read-only")
        return method(*args)


class TransformingStore(_DelegatingStore):
    """Applies ``encode`` on the write path and ``decode`` on the read path.

    ``decode(encode(v))`` must equal ``v``.  This is how the DSCL's loosely
    coupled integration attaches encryption or compression to an unmodified
    store: the application writes plaintext values, the inner store only
    ever sees transformed ones.

    Version tokens are computed by the inner store over the *transformed*
    value, which is still correct for revalidation (equal plaintexts encode
    to equal payloads for the deterministic codecs used on this path;
    randomised codecs such as AES-GCM change the token on every write, which
    degrades revalidation to a plain fetch but never returns stale data).

    The read/write overrides call the inner store directly, with no hook
    frame: this is the enhanced client's per-request path.
    """

    def __init__(
        self,
        inner: KeyValueStore,
        encode: Callable[[Any], Any],
        decode: Callable[[Any], Any],
        name: str | None = None,
    ) -> None:
        super().__init__(inner, name=name if name is not None else f"{inner.name}+codec")
        self._encode = encode
        self._decode = decode

    def get(self, key: str) -> Any:
        return self._decode(self._inner.get(key))

    def put(self, key: str, value: Any) -> None:
        self._inner.put(key, self._encode(value))

    def get_many(self, keys: Iterable[str]) -> dict[str, Any]:
        """One inner batch read (one MGET on a remote store), decoded per value."""
        decode = self._decode
        return {key: decode(value) for key, value in self._inner.get_many(keys).items()}

    def put_many(self, items: Mapping[str, Any]) -> None:
        """Encode per value, then one inner batch write."""
        encode = self._encode
        self._inner.put_many({key: encode(value) for key, value in items.items()})

    def put_with_version(self, key: str, value: Any) -> str | None:
        return self._inner.put_with_version(key, self._encode(value))

    def get_with_version(self, key: str) -> tuple[Any, str]:
        value, version = self._inner.get_with_version(key)
        return self._decode(value), version

    def get_if_modified(self, key: str, version: str) -> tuple[Any, str] | NotModified:
        result = self._inner.get_if_modified(key, version)
        if isinstance(result, NotModified):
            return result
        value, new_version = result
        return self._decode(value), new_version
