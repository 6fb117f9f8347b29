"""Pub/sub transport and cross-client cache coherence."""

from __future__ import annotations

import threading
import time

import pytest

from repro.caching import MISS, InProcessCache
from repro.consistency import CoherentClient, InvalidationBus
from repro.kv import InMemoryStore
from repro.net.client import CacheClient, SubscriberClient


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return False


class TestPubSubTransport:
    def test_publish_reaches_subscriber(self, cache_server, cache_client):
        received = []
        done = threading.Event()
        subscriber = SubscriberClient(cache_server.host, cache_server.port)
        subscriber.subscribe(b"chan", lambda ch, payload: (received.append(payload), done.set()))
        assert cache_client.publish(b"chan", b"hello") == 1
        assert done.wait(timeout=5)
        assert received == [b"hello"]
        subscriber.close()

    def test_publish_without_subscribers_reaches_zero(self, cache_client):
        assert cache_client.publish(b"empty-chan", b"x") == 0

    def test_channels_are_isolated(self, cache_server, cache_client):
        wrong = []
        subscriber = SubscriberClient(cache_server.host, cache_server.port)
        subscriber.subscribe(b"mine", lambda ch, payload: wrong.append(payload))
        cache_client.publish(b"other", b"not for you")
        time.sleep(0.05)
        assert wrong == []
        subscriber.close()

    def test_multiple_subscribers_all_receive(self, cache_server, cache_client):
        counters = [0, 0, 0]
        subscribers = []
        for index in range(3):
            sub = SubscriberClient(cache_server.host, cache_server.port)

            def bump(_ch, _payload, index=index):
                counters[index] += 1

            sub.subscribe(b"fanout", bump)
            subscribers.append(sub)
        assert cache_client.publish(b"fanout", b"msg") == 3
        assert wait_for(lambda: all(c == 1 for c in counters))
        for sub in subscribers:
            sub.close()

    def test_unsubscribe_stops_delivery(self, cache_server, cache_client):
        received = []
        subscriber = SubscriberClient(cache_server.host, cache_server.port)
        subscriber.subscribe(b"chan", lambda ch, payload: received.append(payload))
        subscriber.unsubscribe(b"chan")
        time.sleep(0.02)
        assert cache_client.publish(b"chan", b"late") == 0
        subscriber.close()

    def test_dead_subscriber_pruned(self, cache_server, cache_client):
        subscriber = SubscriberClient(cache_server.host, cache_server.port)
        subscriber.subscribe(b"chan", lambda ch, payload: None)
        subscriber.close()
        time.sleep(0.05)
        # First publish may hit the dead context and prune it; after that
        # the count settles at zero.
        cache_client.publish(b"chan", b"probe")
        time.sleep(0.02)
        assert cache_client.publish(b"chan", b"probe2") == 0

    def test_subscriber_survives_callback_exception(self, cache_server, cache_client):
        received = []
        done = threading.Event()
        subscriber = SubscriberClient(cache_server.host, cache_server.port)

        def explode_then_record(_ch, payload):
            if payload == b"boom":
                raise RuntimeError("callback bug")
            received.append(payload)
            done.set()

        subscriber.subscribe(b"chan", explode_then_record)
        cache_client.publish(b"chan", b"boom")
        cache_client.publish(b"chan", b"after")
        assert done.wait(timeout=5)
        assert received == [b"after"]
        subscriber.close()


class TestInvalidationBus:
    def test_peer_events_delivered_own_filtered(self, cache_server):
        bus_a = InvalidationBus(cache_server.host, cache_server.port, channel="t1", origin_id="A")
        bus_b = InvalidationBus(cache_server.host, cache_server.port, channel="t1", origin_id="B")
        seen_by_b = []
        bus_a.start()
        bus_b.start()
        bus_b.add_listener(lambda key, origin: seen_by_b.append((key, origin)))

        bus_a.publish("user:1")     # B must see this
        bus_b.publish("user:2")     # B must NOT see its own event
        assert wait_for(lambda: ("user:1", "A") in seen_by_b)
        time.sleep(0.05)
        assert all(origin != "B" for _key, origin in seen_by_b)
        assert bus_b.received == 1
        bus_a.close()
        bus_b.close()

    def test_keys_with_colons_survive(self, cache_server):
        bus_a = InvalidationBus(cache_server.host, cache_server.port, channel="t2", origin_id="A")
        bus_b = InvalidationBus(cache_server.host, cache_server.port, channel="t2", origin_id="B")
        seen = []
        bus_b.start()
        bus_b.add_listener(lambda key, origin: seen.append(key))
        bus_a.publish("ns:sub:key:1")
        assert wait_for(lambda: seen == ["ns:sub:key:1"])
        bus_a.close()
        bus_b.close()

    def test_surrogate_escaped_key_delivered_unchanged(self, cache_server):
        """A key read off the wire as non-UTF-8 bytes reaches peers as the
        same ``str``, so they invalidate the entry it names."""
        bus_a = InvalidationBus(cache_server.host, cache_server.port, channel="t3", origin_id="A")
        bus_b = InvalidationBus(cache_server.host, cache_server.port, channel="t3", origin_id="B")
        seen = []
        bus_b.start()
        bus_b.add_listener(lambda key, origin: seen.append(key))
        bus_a.publish("\udcff\udcfe-k")
        assert wait_for(lambda: seen == ["\udcff\udcfe-k"])
        bus_a.close()
        bus_b.close()


class TestCoherentClient:
    def make_pair(self, cache_server, shared_store, channel):
        bus_a = InvalidationBus(
            cache_server.host, cache_server.port, channel=channel, origin_id="A"
        )
        bus_b = InvalidationBus(
            cache_server.host, cache_server.port, channel=channel, origin_id="B"
        )
        client_a = CoherentClient(shared_store, bus_a, cache=InProcessCache())
        client_b = CoherentClient(shared_store, bus_b, cache=InProcessCache())
        return (client_a, bus_a), (client_b, bus_b)

    def test_stale_read_prevented_across_clients(self, cache_server):
        """The headline scenario: without coherence, B would serve v1 from
        its cache forever; with it, B refetches after A's write."""
        store = InMemoryStore()
        (client_a, bus_a), (client_b, bus_b) = self.make_pair(cache_server, store, "c1")
        try:
            client_a.put("doc", "v1")
            assert client_b.get("doc") == "v1"      # B caches v1
            client_a.put("doc", "v2")               # A writes; bus announces
            assert wait_for(lambda: client_b.peer_invalidations >= 1)
            assert client_b.get("doc") == "v2"      # B's next read is fresh
        finally:
            bus_a.close()
            bus_b.close()

    def test_delete_propagates(self, cache_server):
        store = InMemoryStore()
        (client_a, bus_a), (client_b, bus_b) = self.make_pair(cache_server, store, "c2")
        try:
            client_a.put("doc", "v1")
            client_b.get("doc")
            client_a.delete("doc")
            assert wait_for(lambda: client_b.peer_invalidations >= 1)
            assert client_b.get_or_default("doc", "gone") == "gone"
        finally:
            bus_a.close()
            bus_b.close()

    def test_writer_keeps_own_fresh_entry(self, cache_server):
        store = InMemoryStore()
        (client_a, bus_a), (_client_b, bus_b) = self.make_pair(cache_server, store, "c3")
        try:
            client_a.put("doc", "v1")
            time.sleep(0.05)
            # A's own write-through entry must not have been invalidated.
            assert client_a.dscl.cache_get("doc") == "v1"
            assert client_a.peer_invalidations == 0
        finally:
            bus_a.close()
            bus_b.close()

    def test_unrelated_keys_not_invalidated(self, cache_server):
        store = InMemoryStore()
        (client_a, bus_a), (client_b, bus_b) = self.make_pair(cache_server, store, "c4")
        try:
            client_a.put("stable", "s")
            # Let A's publication land at B BEFORE B caches the key, so
            # the event (correctly) finds nothing to drop.
            assert wait_for(lambda: bus_b.received >= 1)
            client_b.get("stable")
            client_a.put("other", "x")
            assert wait_for(lambda: bus_b.received >= 2)
            assert client_b.dscl.cache_get("stable") == "s"
        finally:
            bus_a.close()
            bus_b.close()
