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


class _DelegatingStore(KeyValueStore):
    """Shared plumbing: forward everything to ``self._inner`` unchanged."""

    def __init__(self, inner: KeyValueStore, name: str | None = None) -> None:
        self._inner = inner
        self.name = name if name is not None else inner.name

    @property
    def inner(self) -> KeyValueStore:
        """The wrapped store."""
        return self._inner

    def get(self, key: str) -> Any:
        return self._inner.get(key)

    def put(self, key: str, value: Any) -> None:
        self._inner.put(key, value)

    def delete(self, key: str) -> bool:
        return self._inner.delete(key)

    def keys(self) -> Iterator[str]:
        return self._inner.keys()

    def keys_with_prefix(self, prefix: str) -> Iterator[str]:
        return self._inner.keys_with_prefix(prefix)

    def contains(self, key: str) -> bool:
        return self._inner.contains(key)

    def size(self) -> int:
        return self._inner.size()

    def get_with_version(self, key: str) -> tuple[Any, str]:
        return self._inner.get_with_version(key)

    def get_if_modified(self, key: str, version: str) -> tuple[Any, str] | NotModified:
        return self._inner.get_if_modified(key, version)

    def put_with_version(self, key: str, value: Any) -> str | None:
        return self._inner.put_with_version(key, value)

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

    def get(self, key: str) -> Any:
        return self._inner.get(self._wrap(key))

    def put(self, key: str, value: Any) -> None:
        self._inner.put(self._wrap(key), value)

    def delete(self, key: str) -> bool:
        return self._inner.delete(self._wrap(key))

    def contains(self, key: str) -> bool:
        return self._inner.contains(self._wrap(key))

    def keys(self) -> Iterator[str]:
        for stored_key in self._inner.keys_with_prefix(self._prefix):
            yield self._unwrap(stored_key)

    def keys_with_prefix(self, prefix: str) -> Iterator[str]:
        for stored_key in self._inner.keys_with_prefix(self._prefix + prefix):
            yield self._unwrap(stored_key)

    def size(self) -> int:
        return sum(1 for _ in self.keys())

    def get_with_version(self, key: str) -> tuple[Any, str]:
        return self._inner.get_with_version(self._wrap(key))

    def get_if_modified(self, key: str, version: str) -> tuple[Any, str] | NotModified:
        return self._inner.get_if_modified(self._wrap(key), version)

    def put_with_version(self, key: str, value: Any) -> str | None:
        return self._inner.put_with_version(self._wrap(key), value)

    def clear(self) -> int:
        return self._inner.delete_many([self._wrap(key) for key in self.keys()])

    def close(self) -> None:
        # Deliberately do NOT close the shared backend: other namespaces
        # may still be using it.  The owner of the backend closes it.
        pass


class ReadOnlyStore(_DelegatingStore):
    """Rejects every mutating operation with :class:`DataStoreError`."""

    def put(self, key: str, value: Any) -> None:
        raise DataStoreError(f"store {self.name!r} is read-only")

    def put_with_version(self, key: str, value: Any) -> str | None:
        raise DataStoreError(f"store {self.name!r} is read-only")

    def put_many(self, items: Mapping[str, Any]) -> None:
        raise DataStoreError(f"store {self.name!r} is read-only")

    def delete(self, key: str) -> bool:
        raise DataStoreError(f"store {self.name!r} is read-only")

    def clear(self) -> int:
        raise DataStoreError(f"store {self.name!r} is read-only")


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
