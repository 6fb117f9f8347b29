"""Key-value store backed by the remote-process cache server.

In the paper's evaluation, the local Redis instance plays two roles: it is
one of the five data stores compared through the common key-value interface
(Figures 9, 10, 19), *and* it is the remote-process cache layered over the
other stores (Figures 12, 14, 16, 18).  This module covers the first role:
a full :class:`~repro.kv.interface.KeyValueStore` over our TCP cache server,
with values crossing a serializer (Jedis-style), so reads and writes pay
real IPC and serialization costs.

The second role is this store behind the cache interface:
:class:`repro.caching.remote.RemoteProcessCache` is a ``KeyValueStoreCache``
over it.  Keys cross the wire as their :func:`~repro.kv.interface.encode_key`
bytes, so it addresses any key the server holds, whichever client wrote it.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping

from ..errors import KeyNotFoundError
from ..net.client import CacheClient
from ..serialization import Serializer, default_serializer
from .interface import (
    NOT_MODIFIED,
    KeyValueStore,
    NotModified,
    content_version,
    decode_key,
    encode_key,
)

__all__ = ["RemoteKeyValueStore"]


class RemoteKeyValueStore(KeyValueStore):
    """The "Redis via Jedis" data store of the evaluation."""

    def __init__(
        self,
        host: str,
        port: int,
        name: str = "redis",
        *,
        serializer: Serializer | None = None,
        client: CacheClient | None = None,
    ) -> None:
        """Connect to a cache server at ``host:port``.

        Pass an existing *client* to share a connection (e.g. with a
        :class:`~repro.caching.remote.RemoteProcessCache` on the same server);
        the store then does not own, and will not close, the connection.
        """
        self.name = name
        self._serializer = serializer if serializer is not None else default_serializer()
        self._owns_client = client is None
        self._client = client if client is not None else CacheClient(host, port)

    # ------------------------------------------------------------------
    def get(self, key: str) -> Any:
        payload = self._client.get(encode_key(key))
        if payload is None:
            raise KeyNotFoundError(key, self.name)
        return self._serializer.loads(payload)

    def get_with_version(self, key: str) -> tuple[Any, str]:
        payload = self._client.get(encode_key(key))
        if payload is None:
            raise KeyNotFoundError(key, self.name)
        return self._serializer.loads(payload), content_version(payload)

    def get_if_modified(self, key: str, version: str) -> tuple[Any, str] | NotModified:
        """Revalidate using the server-side GETVER command.

        A match costs one round trip but transfers no payload -- the
        If-Modified-Since behaviour from Section III.
        """
        current = self._client.getver(encode_key(key))
        if current is None:
            raise KeyNotFoundError(key, self.name)
        if current == version:
            return NOT_MODIFIED
        payload = self._client.get(encode_key(key))
        if payload is None:  # deleted between the two commands
            raise KeyNotFoundError(key, self.name)
        return self._serializer.loads(payload), content_version(payload)

    def put(self, key: str, value: Any) -> None:
        # The same SET as put_with_version, minus the version-token hash
        # nobody asked for.
        self._client.set(encode_key(key), self._serializer.dumps(value))

    def put_with_version(self, key: str, value: Any) -> str:
        payload = self._serializer.dumps(value)
        self._client.set(encode_key(key), payload)
        return content_version(payload)

    def get_many(self, keys: "Iterable[str]") -> dict[str, Any]:
        """Batched fetch over the wire MGET: one round trip for all keys."""
        key_list = list(keys)
        if not key_list:
            return {}
        payloads = self._client.mget([encode_key(key) for key in key_list])
        return {
            key: self._serializer.loads(payload)
            for key, payload in zip(key_list, payloads)
            if payload is not None
        }

    def put_many(self, items: "Mapping[str, Any]") -> None:
        """Batched store over the wire MSET: one round trip for all pairs."""
        if not items:
            return
        self._client.mset(
            {
                encode_key(key): self._serializer.dumps(value)
                for key, value in items.items()
            }
        )

    def delete(self, key: str) -> bool:
        return self._client.delete(encode_key(key)) > 0

    def delete_many(self, keys: "Iterable[str]") -> int:
        key_list = [encode_key(key) for key in keys]
        if not key_list:
            return 0
        return self._client.delete(*key_list)

    def contains(self, key: str) -> bool:
        return self._client.exists(encode_key(key))

    def keys(self) -> Iterator[str]:
        return map(decode_key, self._client.keys())

    def size(self) -> int:
        return self._client.dbsize()

    def clear(self) -> int:
        count = self._client.dbsize()
        self._client.flushall()
        return count

    def close(self) -> None:
        if self._owns_client:
            self._client.close()

    def native(self) -> CacheClient:
        """The underlying protocol client (server-specific commands)."""
        return self._client
