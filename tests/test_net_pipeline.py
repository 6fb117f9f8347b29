"""Batched wire commands: MGET/MSET and client pipelining."""

from __future__ import annotations

import pytest

from repro.kv import RemoteKeyValueStore
from repro.net.protocol import NIL, SimpleString, WireError


class TestMultiKeyCommands:
    def test_mset_then_mget(self, cache_client):
        cache_client.mset({b"a": b"1", b"b": b"2", b"c": b"3"})
        assert cache_client.mget([b"a", b"b", b"c"]) == [b"1", b"2", b"3"]

    def test_mget_reports_missing_as_none(self, cache_client):
        cache_client.set(b"present", b"v")
        assert cache_client.mget([b"present", b"ghost"]) == [b"v", None]

    def test_empty_batches_are_noops(self, cache_client):
        assert cache_client.mget([]) == []
        cache_client.mset({})

    def test_mset_odd_arity_rejected(self, cache_client):
        reply = cache_client._roundtrip(["MSET", b"k"])  # noqa: SLF001
        assert isinstance(reply, WireError)

    def test_remote_store_get_many_uses_one_roundtrip(self, cache_server):
        store = RemoteKeyValueStore(cache_server.host, cache_server.port)
        store.put_many({f"k{i}": {"n": i} for i in range(10)})
        result = store.get_many([f"k{i}" for i in range(10)] + ["ghost"])
        assert len(result) == 10
        assert result["k3"] == {"n": 3}
        assert store.delete_many([f"k{i}" for i in range(10)]) == 10
        store.clear()
        store.close()

    def test_remote_store_put_skips_the_version_hash(self, cache_server, monkeypatch):
        from repro.kv import remote as remote_module

        hashed: list[bytes] = []
        real = remote_module.content_version
        monkeypatch.setattr(
            remote_module, "content_version", lambda payload: hashed.append(payload) or real(payload)
        )
        store = RemoteKeyValueStore(cache_server.host, cache_server.port)
        store.put("plain", {"n": 1})
        assert hashed == []
        assert store.get("plain") == {"n": 1}
        version = store.put_with_version("versioned", {"n": 2})
        assert len(hashed) == 1 and version == real(hashed[0])
        store.clear()
        store.close()

    def test_store_server_mget_mset(self, tmp_path):
        from repro.kv import InMemoryStore
        from repro.net.client import CacheClient
        from repro.net.server import StoreServer

        srv = StoreServer(InMemoryStore())
        host, port = srv.start()
        try:
            client = CacheClient(host, port)
            client.mset({b"x": b"1", b"y": b"2"})
            assert client.mget([b"x", b"y", b"z"]) == [b"1", b"2", None]
            client.close()
        finally:
            srv.stop()


class TestPipelining:
    def test_mixed_pipeline(self, cache_client):
        pipe = cache_client.pipeline()
        pipe.set(b"p1", b"v1").set(b"p2", b"v2").get(b"p1").exists(b"p2").delete(b"p1")
        replies = pipe.execute()
        assert replies[0] == SimpleString("OK")
        assert replies[2] == b"v1"
        assert replies[3] == 1
        assert replies[4] == 1
        assert cache_client.get(b"p1") is None

    def test_pipeline_get_miss_is_nil(self, cache_client):
        replies = cache_client.pipeline().get(b"ghost").execute()
        assert replies == [NIL]

    def test_errors_are_values_not_exceptions(self, cache_client):
        replies = cache_client.execute_pipeline([["NOSUCH"], ["PING"]])
        assert isinstance(replies[0], WireError)
        assert replies[1] == SimpleString("PONG")

    def test_empty_pipeline(self, cache_client):
        assert cache_client.pipeline().execute() == []
        assert cache_client.execute_pipeline([]) == []

    def test_pipeline_builder_resets_after_execute(self, cache_client):
        pipe = cache_client.pipeline()
        pipe.set(b"k", b"v")
        pipe.execute()
        assert len(pipe) == 0
        pipe.get(b"k")
        assert pipe.execute() == [b"v"]

    def test_large_pipeline(self, cache_client):
        pipe = cache_client.pipeline()
        for i in range(500):
            pipe.set(f"bulk{i}".encode(), str(i).encode())
        replies = pipe.execute()
        assert len(replies) == 500
        assert cache_client.dbsize() >= 500

    def test_pipeline_with_ttl(self, cache_client):
        cache_client.pipeline().set(b"t", b"v", ttl=100).execute()
        assert 0 < cache_client.ttl(b"t") <= 100

    def test_pipelining_saves_roundtrips(self, cache_server, monkeypatch):
        """Counted, not clocked: 200 sequential sets are 200 round trips;
        one pipelined batch of 200 is one stream write and no round trip."""
        from repro.net.client import CacheClient

        client = CacheClient(cache_server.host, cache_server.port)
        assert client.ping()  # connect, so the stream below is the live one
        stream, writes, roundtrips = client._stream, [], []

        class CountingStream:
            def write(self, data):
                writes.append(len(data))
                return stream.write(data)

            def __getattr__(self, name):
                return getattr(stream, name)

        roundtrip = client._roundtrip

        def counting_roundtrip(args):
            roundtrips.append(args[0])
            return roundtrip(args)

        monkeypatch.setattr(client, "_stream", CountingStream())
        monkeypatch.setattr(client, "_roundtrip", counting_roundtrip)
        for i in range(200):
            client.set(f"seq{i}".encode(), b"v")
        assert (len(roundtrips), len(writes)) == (200, 200)

        del roundtrips[:], writes[:]
        pipe = client.pipeline()
        for i in range(200):
            pipe.set(f"pip{i}".encode(), b"v")
        assert len(pipe.execute()) == 200
        assert (len(roundtrips), len(writes)) == (0, 1)
        assert client.get(b"pip199") == b"v"
        client.flushall()
        client.close()
