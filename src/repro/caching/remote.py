"""Remote-process cache (the paper's Redis/memcached role).

"Via the key-value interface, any data store can serve as a cache": this
cache is :class:`~repro.caching.kvadapter.KeyValueStoreCache` over
:class:`~repro.kv.remote.RemoteKeyValueStore`, the adapter that already maps
keys and values onto the wire for the store role.  Values cross a serializer
on every operation and a TCP round trip carries them to a cache server
running in another process (possibly another machine) -- the two costs the
paper identifies as the price of sharing a cache across clients (Section
III, Figures 12/14/16/18).

TTLs passed by :class:`~repro.caching.expiration.ExpiringCache` are *not*
forwarded to the server: the paper is explicit that expiration must be
managed above the cache so that expired-but-maybe-still-valid entries stay
revalidatable instead of being purged.  Server-side TTLs remain available to
direct users of the protocol client.
"""

from __future__ import annotations

from ..errors import StoreConnectionError
from ..kv.remote import RemoteKeyValueStore
from ..kv.wrappers import NamespacedStore
from ..net.client import CacheClient
from ..obs import Observability, resolve_obs
from ..serialization import Serializer
from .kvadapter import KeyValueStoreCache

__all__ = ["RemoteProcessCache"]


class RemoteProcessCache(KeyValueStoreCache):
    """DSCL cache backed by the remote cache server."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        serializer: Serializer | None = None,
        namespace: str = "",
        client: CacheClient | None = None,
        name: str = "remote",
        obs: Observability | None = None,
    ) -> None:
        """Connect to a cache server.

        :param namespace: optional key prefix (``namespace:``) so several
            logical caches can share one server (the paper's "shared by
            multiple clients"); ``clear`` and ``size`` then cover only this
            namespace.  Unprefixed, ``clear`` flushes the whole server.
        :param client: reuse an existing connection instead of opening one;
            the cache then does not own (and will not close) it.
        :param obs: observability bundle; routes hit/miss counters into the
            shared registry and -- when this cache opens its own
            connection -- times every TCP round trip as a
            ``net.roundtrip`` span.
        """
        self._owns_client = client is None
        self._client = client if client is not None else CacheClient(host, port, obs=obs)
        store = RemoteKeyValueStore(host, port, name, serializer=serializer, client=self._client)
        super().__init__(NamespacedStore(store, namespace) if namespace else store, name=name)
        obs = resolve_obs(obs)
        if obs.enabled:
            self.stats.bind(obs.registry, f"cache.{name}")

    def close(self) -> None:
        if self._owns_client:
            self._client.close()

    # ------------------------------------------------------------------
    def save(self) -> None:
        """Ask the server to snapshot its keyspace (warm-restart support)."""
        self._client.save()

    def ping(self) -> bool:
        """Health check; ``False`` if the server is unreachable."""
        try:
            return self._client.ping()
        except StoreConnectionError:
            return False
