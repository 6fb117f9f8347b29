"""The invalidation bus: key-change notifications over pub/sub.

Messages are ``<origin-id>:<key>`` so receivers can ignore their own
publications (a client that just wrote a key has already updated or
invalidated its own cache; dropping the fresh entry again would only cost
an extra miss).
"""

from __future__ import annotations

import threading
import uuid
from typing import Callable

from ..errors import StoreConnectionError
from ..kv.interface import decode_key, encode_key
from ..net.client import CacheClient, SubscriberClient

__all__ = ["InvalidationBus"]


class InvalidationBus:
    """Publish and receive cache-invalidation events for a shared server.

    One bus instance per client process; ``origin_id`` identifies this
    process's publications so they can be filtered on receipt.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        channel: str = "cache-invalidation",
        origin_id: str | None = None,
        publisher: CacheClient | None = None,
    ) -> None:
        """Connect the bus.

        :param channel: pub/sub channel name; clients sharing data must
            share the channel.
        :param publisher: reuse an existing request/reply client for
            PUBLISH commands (a dedicated subscriber connection is always
            opened; pushes cannot share a request/reply socket).
        """
        self.origin_id = origin_id if origin_id is not None else uuid.uuid4().hex[:12]
        self._channel = channel.encode("utf-8")
        self._owns_publisher = publisher is None
        self._publisher = publisher if publisher is not None else CacheClient(host, port)
        self._subscriber = SubscriberClient(host, port)
        self._listeners: list[Callable[[str, str], None]] = []
        self._lock = threading.Lock()
        self._started = False
        #: events received from peers (own publications excluded)
        self.received = 0
        #: events published by this bus
        self.published = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin receiving events.  Idempotent."""
        with self._lock:
            if self._started:
                return
            self._started = True
        self._subscriber.subscribe(self._channel, self._on_message)

    def add_listener(self, listener: Callable[[str, str], None]) -> None:
        """Register ``listener(key, origin_id)`` for *peer* invalidations."""
        with self._lock:
            self._listeners.append(listener)

    def publish(self, key: str) -> int:
        """Announce that *key* changed; returns subscribers reached."""
        message = encode_key(f"{self.origin_id}:{key}")
        count = self._publisher.publish(self._channel, message)
        self.published += 1
        return count

    def _on_message(self, _channel: bytes, payload: bytes) -> None:
        origin, _sep, key = decode_key(payload).partition(":")
        if origin == self.origin_id:
            return  # our own write; local cache is already correct
        self.received += 1
        with self._lock:
            listeners = list(self._listeners)
        for listener in listeners:
            try:
                listener(key, origin)
            except Exception:  # noqa: BLE001 - one listener must not break others
                pass

    # ------------------------------------------------------------------
    def close(self) -> None:
        try:
            self._subscriber.close()
        except StoreConnectionError:
            pass
        if self._owns_publisher:
            self._publisher.close()

    def __enter__(self) -> "InvalidationBus":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
