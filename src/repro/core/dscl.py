"""The Data Store Client Library (DSCL) -- explicit API.

The paper's second integration approach (Section III): hand applications the
library itself and let them drive caching, encryption, compression, and
delta encoding with explicit calls, independent of any particular data
store.  The DSCL is therefore a facade over the lower-level subsystems:

* a cache (any :class:`~repro.caching.interface.Cache`) under DSCL-managed
  expiration times (:class:`~repro.caching.expiration.ExpiringCache`);
* a :class:`~repro.core.pipeline.ValuePipeline` for confidentiality and
  size reduction;
* a :class:`~repro.delta.encoder.DeltaCodec` for delta-encoded updates.

Even when the tightly integrated
:class:`~repro.core.enhanced.EnhancedDataStoreClient` is in use, the paper
recommends also exposing this API for fine-grained control; the enhanced
client exposes its internal DSCL for exactly that reason.
"""

from __future__ import annotations

from typing import Any

from ..caching.expiration import ExpiringCache, LookupResult
from ..caching.inprocess import InProcessCache
from ..caching.interface import Cache
from ..compression.interface import Compressor
from ..delta.encoder import DeltaCodec
from ..kv.interface import KeyValueStore
from ..kv.wrappers import TransformingStore
from ..obs import Observability, resolve_obs
from ..security.interface import Encryptor
from ..serialization import Serializer
from .pipeline import ValuePipeline

__all__ = ["DSCL"]


class DSCL:
    """Facade bundling the enhanced-client building blocks."""

    def __init__(
        self,
        *,
        cache: Cache | None = None,
        default_ttl: float | None = None,
        serializer: Serializer | None = None,
        compressor: Compressor | None = None,
        encryptor: Encryptor | None = None,
        obs: Observability | None = None,
    ) -> None:
        """Assemble a DSCL instance.

        :param cache: cache implementation (default: a fresh
            :class:`~repro.caching.inprocess.InProcessCache`).
        :param default_ttl: expiration applied to cached objects unless a
            ``put`` overrides it (``None`` = no expiry).
        :param serializer/compressor/encryptor: value pipeline stages.
        :param obs: observability bundle shared with the pipeline; cache
            operations become ``cache.*`` spans and the cache's hit/miss
            counters are re-homed into the shared metrics registry.
        """
        self.obs = resolve_obs(obs)
        self.pipeline = ValuePipeline(
            serializer=serializer, compressor=compressor, encryptor=encryptor, obs=obs
        )
        self.cache = cache if cache is not None else InProcessCache()
        self.expiring = ExpiringCache(self.cache, default_ttl=default_ttl)
        self.delta_codec = DeltaCodec()
        self._m_cache = f"cache.{self.cache.name}"
        self._m_cache_put = self._m_cache + ".put"
        self._m_cache_lookup = self._m_cache + ".lookup"
        if self.obs.enabled:
            self.cache.stats.bind(self.obs.registry, self._m_cache)

    # ------------------------------------------------------------------
    # Caching API (explicit, paper approach 2)
    # ------------------------------------------------------------------
    def cache_put(
        self,
        key: str,
        value: Any,
        *,
        ttl: float | None | type(...) = ...,
        version: str | None = None,
    ) -> None:
        """Cache *value* under DSCL-managed expiration."""
        with self.obs.stage("cache.put", metric=self._m_cache_put):
            self.expiring.put(key, value, ttl=ttl, version=version)

    def cache_get(self, key: str) -> Any:
        """Fresh cached value, or :data:`~repro.caching.interface.MISS`."""
        with self.obs.stage("cache.lookup", metric=self._m_cache_lookup):
            return self.expiring.get(key)

    def cache_lookup(self, key: str) -> LookupResult:
        """Full-fidelity lookup distinguishing fresh / expired / miss."""
        with self.obs.stage("cache.lookup", metric=self._m_cache_lookup) as span:
            result = self.expiring.lookup(key)
            if span is not None:
                # ``_value_``: Enum's ``.value`` is a two-call descriptor.
                span.attributes["freshness"] = result.freshness._value_
            return result

    def cache_refresh(
        self,
        key: str,
        *,
        ttl: float | None | type(...) = ...,
        version: str | None = None,
    ) -> bool:
        """Re-arm an expired entry after revalidation; True if it existed."""
        return self.expiring.refresh(key, ttl=ttl, version=version) is not None

    def cache_delete(self, key: str) -> bool:
        return self.expiring.delete(key)

    def cache_clear(self) -> int:
        return self.expiring.clear()

    # ------------------------------------------------------------------
    # Encryption / compression API
    # ------------------------------------------------------------------
    def encode_value(self, value: Any) -> bytes:
        """Serialize + compress + encrypt *value* for storage or transport."""
        return self.pipeline.encode(value)

    def decode_value(self, payload: bytes) -> Any:
        """Invert :meth:`encode_value`."""
        return self.pipeline.decode(payload)

    def encrypt(self, data: bytes) -> bytes:
        """Encrypt raw bytes (no-op without an encryptor)."""
        encryptor = self.pipeline.encryptor
        return data if encryptor is None else encryptor.encrypt(data)

    def decrypt(self, data: bytes) -> bytes:
        encryptor = self.pipeline.encryptor
        return data if encryptor is None else encryptor.decrypt(data)

    def compress(self, data: bytes) -> bytes:
        """Compress raw bytes (no-op without a compressor)."""
        compressor = self.pipeline.compressor
        return data if compressor is None else compressor.compress(data)

    def decompress(self, data: bytes) -> bytes:
        compressor = self.pipeline.compressor
        return data if compressor is None else compressor.decompress(data)

    # ------------------------------------------------------------------
    # Delta encoding API
    # ------------------------------------------------------------------
    def make_delta(
        self, old_value: Any, new_value: Any, *, max_ratio: float = 0.9
    ) -> bytes | None:
        """Delta between two values, or ``None`` when not worth using.

        Values are compared in *serialized* (pre-compression) form, where
        similar objects still have similar bytes.  *max_ratio* demands a
        real saving before a delta replaces a full write (marginal savings
        never justify managing a delta).
        """
        serializer = self.pipeline.serializer
        with self.obs.stage("delta.encode"):
            return self.delta_codec.encode_if_profitable(
                serializer.dumps(old_value), serializer.dumps(new_value), max_ratio=max_ratio
            )

    def apply_value_delta(self, old_value: Any, delta: bytes) -> Any:
        """Reconstruct the new value from the old one plus a delta."""
        serializer = self.pipeline.serializer
        with self.obs.stage("delta.apply"):
            return serializer.loads(
                self.delta_codec.apply(serializer.dumps(old_value), delta)
            )

    # ------------------------------------------------------------------
    # Store integration helper
    # ------------------------------------------------------------------
    def wrap_store(self, store: KeyValueStore) -> KeyValueStore:
        """Attach this DSCL's pipeline to an unmodified store.

        Returns the store itself when the pipeline is an identity; otherwise
        a :class:`~repro.kv.wrappers.TransformingStore` whose values are
        pipeline-encoded bytes -- the loosely coupled integration that needs
        no changes to the store's client code.
        """
        if self.pipeline.is_identity:
            return store
        return TransformingStore(
            store,
            encode=self.pipeline.encode,
            decode=self.pipeline.decode,
            name=f"{store.name}+{self.pipeline.describe()}",
        )
