"""Cache server: commands, TTLs, LRU bound, snapshots, concurrency,
child-process mode, and failure injection."""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.errors import StoreConnectionError
from repro.net.client import CacheClient
from repro.net.protocol import WireError
from repro.net.server import CacheServer, ServerHandle


@pytest.fixture()
def server():
    srv = CacheServer()
    srv.start()
    yield srv
    srv.stop()


@pytest.fixture()
def client(server):
    c = CacheClient(*server.address)
    yield c
    c.close()


class TestCommands:
    def test_ping(self, client):
        assert client.ping()

    def test_set_get(self, client):
        client.set(b"k", b"value")
        assert client.get(b"k") == b"value"

    def test_get_missing_returns_none(self, client):
        assert client.get(b"absent") is None

    def test_binary_keys_and_values(self, client):
        key = bytes(range(256))
        value = b"\r\n" * 100 + bytes(range(256))
        client.set(key, value)
        assert client.get(key) == value

    def test_delete_counts(self, client):
        client.set(b"a", b"1")
        client.set(b"b", b"2")
        assert client.delete(b"a", b"b", b"c") == 2

    def test_exists(self, client):
        assert not client.exists(b"k")
        client.set(b"k", b"v")
        assert client.exists(b"k")

    def test_keys_and_dbsize(self, client):
        for i in range(5):
            client.set(f"k{i}".encode(), b"v")
        assert client.dbsize() == 5
        assert sorted(client.keys()) == [f"k{i}".encode() for i in range(5)]

    def test_flushall(self, client):
        client.set(b"k", b"v")
        client.flushall()
        assert client.dbsize() == 0

    def test_getver_tracks_content(self, client):
        assert client.getver(b"k") is None
        client.set(b"k", b"v1")
        v1 = client.getver(b"k")
        client.set(b"k", b"v1")
        assert client.getver(b"k") == v1
        client.set(b"k", b"v2")
        assert client.getver(b"k") != v1

    def test_unknown_command_is_wire_error(self, client):
        reply = client._roundtrip(["NOSUCH"])  # noqa: SLF001 - protocol-level test
        assert isinstance(reply, WireError)

    def test_wrong_arity_is_wire_error(self, server):
        c = CacheClient(*server.address)
        reply = c._roundtrip(["GET"])  # noqa: SLF001
        assert isinstance(reply, WireError)
        c.close()


class TestTTL:
    def test_setex_expires(self, client):
        client.set(b"k", b"v", ttl=0.05)
        assert client.get(b"k") == b"v"
        time.sleep(0.08)
        assert client.get(b"k") is None

    def test_ttl_query(self, client):
        client.set(b"k", b"v", ttl=100)
        assert 0 < client.ttl(b"k") <= 100
        client.set(b"forever", b"v")
        assert client.ttl(b"forever") == -1
        assert client.ttl(b"absent") == -2

    def test_expired_keys_leave_dbsize(self, client):
        client.set(b"k", b"v", ttl=0.02)
        time.sleep(0.05)
        assert client.dbsize() == 0

    def test_invalid_ttl_rejected(self, client):
        reply = client._roundtrip(["SETEX", b"k", b"-1", b"v"])  # noqa: SLF001
        assert isinstance(reply, WireError)


class TestEviction:
    def test_lru_bound_enforced(self):
        srv = CacheServer(max_entries=3)
        srv.start()
        try:
            c = CacheClient(*srv.address)
            for i in range(5):
                c.set(f"k{i}".encode(), b"v")
            assert c.dbsize() == 3
            # Oldest two evicted.
            assert c.get(b"k0") is None
            assert c.get(b"k4") == b"v"
            c.close()
        finally:
            srv.stop()

    def test_get_refreshes_recency(self):
        srv = CacheServer(max_entries=2)
        srv.start()
        try:
            c = CacheClient(*srv.address)
            c.set(b"a", b"1")
            c.set(b"b", b"2")
            c.get(b"a")          # a becomes most recent
            c.set(b"c", b"3")    # evicts b
            assert c.get(b"a") == b"1"
            assert c.get(b"b") is None
            c.close()
        finally:
            srv.stop()

    def test_getver_refreshes_recency(self):
        """A revalidation is a use: GETVER reads through the same store
        ``get`` as GET, so it keeps the key off the LRU victim list."""
        srv = CacheServer(max_entries=2)
        srv.start()
        try:
            c = CacheClient(*srv.address)
            c.set(b"a", b"1")
            c.set(b"b", b"2")
            assert c.getver(b"a") is not None  # a becomes most recent
            c.set(b"c", b"3")                  # evicts b
            assert c.get(b"a") == b"1"
            assert c.get(b"b") is None
            c.close()
        finally:
            srv.stop()


class TestSnapshot:
    def test_save_and_warm_restart(self, tmp_path):
        path = tmp_path / "snap.bin"
        srv = CacheServer(snapshot_path=path)
        srv.start()
        c = CacheClient(*srv.address)
        c.set(b"k", b"persisted")
        c.save()
        c.close()
        srv.stop()

        srv2 = CacheServer(snapshot_path=path)
        srv2.start()
        c2 = CacheClient(*srv2.address)
        assert c2.get(b"k") == b"persisted"
        c2.close()
        srv2.stop()

    def test_save_without_path_is_error(self, client):
        with pytest.raises(WireError):
            client.save()


class TestConcurrency:
    def test_many_threads_share_one_server(self, server):
        errors = []

        def worker(worker_id):
            try:
                c = CacheClient(*server.address)
                for i in range(25):
                    key = f"w{worker_id}-{i}".encode()
                    c.set(key, key * 2)
                    assert c.get(key) == key * 2
                c.close()
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert server.commands_served >= 8 * 50


class TestFailureInjection:
    def test_connection_refused_raises_store_connection_error(self):
        client = CacheClient("127.0.0.1", 1)  # nothing listens on port 1
        with pytest.raises(StoreConnectionError):
            client.ping()

    def test_garbage_from_peer_drops_connection_gracefully(self, server):
        raw = socket.create_connection(server.address, timeout=2)
        raw.sendall(b"complete garbage\r\n")
        reply = raw.recv(1024)
        assert reply.startswith(b"-ERR")
        raw.close()

    def test_client_survives_server_restart(self):
        srv = CacheServer()
        host, port = srv.start()
        client = CacheClient(host, port)
        client.set(b"k", b"v")
        srv.stop()
        # Server gone: operations now fail with a clear error...
        with pytest.raises(StoreConnectionError):
            client.get(b"k")
        # ...and a new server on the same port is picked up by reconnect.
        srv2 = CacheServer(port=port)
        srv2.start()
        try:
            assert client.ping()
        finally:
            client.close()
            srv2.stop()

    def test_closed_client_rejects_operations(self, server):
        client = CacheClient(*server.address)
        client.close()
        with pytest.raises(StoreConnectionError):
            client.ping()


class TestStats:
    """The STATS command: live server-side observability over the wire."""

    def test_stats_reports_per_command_counters(self, client):
        client.set(b"a", b"1")
        client.get(b"a")
        client.get(b"a")
        client.get(b"missing")
        stats = client.stats()
        assert stats["cmd.get.calls"] == "3"
        assert stats["cmd.set.calls"] == "1"
        assert stats["server.keys"] == "1"
        assert stats["server.errors"] == "0"
        assert float(stats["server.uptime_seconds"]) >= 0.0
        # Latency digests accompany every exercised command.
        assert float(stats["cmd.get.mean_ms"]) >= 0.0
        assert float(stats["cmd.get.p99_ms"]) >= 0.0

    def test_stats_counts_served_commands_and_connections(self, server):
        first = CacheClient(*server.address)
        first.ping()
        first.close()
        second = CacheClient(*server.address)
        second.ping()
        stats = second.stats()
        assert int(stats["server.commands_served"]) >= 2
        assert int(stats["server.connections"]) >= 1  # the live one
        second.close()
        assert server.obs.registry.counter("server.connections_total").value >= 2

    def test_errors_counted(self, client, server):
        reply = client._roundtrip(["BOGUS"])  # noqa: SLF001 - protocol-level test
        assert isinstance(reply, WireError)
        stats = client.stats()
        assert int(stats["server.errors"]) >= 1
        assert server.obs.registry.counter("server.cmd.unknown.calls").value >= 1

    def test_command_latencies_reach_the_registry(self, client, server):
        client.set(b"k", b"v")
        client.get(b"k")
        snapshot = server.obs.registry.snapshot()
        assert snapshot["histograms"]["server.cmd.get.seconds"]["count"] == 1
        assert snapshot["histograms"]["server.cmd.set.seconds"]["count"] == 1

    def test_disabled_observability_still_answers_stats(self):
        from repro.obs import NULL_OBS

        srv = CacheServer(obs=NULL_OBS)
        srv.start()
        try:
            c = CacheClient(*srv.address)
            c.set(b"k", b"v")
            stats = c.stats()
            # Basic gauges survive; per-command digests need a registry.
            assert stats["server.keys"] == "1"
            assert "cmd.set.calls" not in stats
            c.close()
        finally:
            srv.stop()

    def test_store_server_stats_counts_store_keys(self):
        from repro.kv import InMemoryStore, RemoteKeyValueStore
        from repro.net.server import StoreServer

        backing = InMemoryStore()
        srv = StoreServer(backing)
        host, port = srv.start()
        try:
            remote = RemoteKeyValueStore(host, port)
            remote.put("k1", 1)
            remote.put("k2", 2)
            probe = CacheClient(host, port)
            stats = probe.stats()
            assert stats["server.keys"] == "2"
            assert int(stats["cmd.set.calls"]) == 2
            probe.close()
            remote.close()
        finally:
            srv.stop()

    def test_metrics_port_serves_server_registry(self):
        """--metrics-port end to end: STATS numbers appear on /metrics."""
        import urllib.request

        from repro.obs.export import parse_prometheus, start_http_exporter

        srv = CacheServer()
        srv.start()
        handle = start_http_exporter(srv.obs)
        try:
            c = CacheClient(*srv.address)
            c.set(b"k", b"v")
            c.get(b"k")
            with urllib.request.urlopen(handle.url + "/metrics", timeout=5) as reply:
                parsed = parse_prometheus(reply.read().decode())
            assert parsed["counters"]["server_cmd_get_calls"] == 1
            assert parsed["histograms"]["server_cmd_set_seconds"]["count"] == 1
            c.close()
        finally:
            handle.stop()
            srv.stop()


class TestStoreServer:
    """StoreServer hosts any KeyValueStore over the wire protocol."""

    def test_serves_a_real_store(self):
        from repro.kv import InMemoryStore, RemoteKeyValueStore
        from repro.net.server import StoreServer

        backing = InMemoryStore()
        srv = StoreServer(backing)
        host, port = srv.start()
        try:
            remote = RemoteKeyValueStore(host, port)
            remote.put("k", {"hosted": True})
            assert remote.get("k") == {"hosted": True}
            assert backing.size() == 1  # value really lives in the store
            _, version = remote.get_with_version("k")
            from repro.kv import NOT_MODIFIED

            assert remote.get_if_modified("k", version) is NOT_MODIFIED
            assert remote.delete("k")
            remote.close()
        finally:
            srv.stop()

    def test_ttl_commands_rejected(self):
        from repro.kv import InMemoryStore
        from repro.net.client import CacheClient
        from repro.net.protocol import WireError
        from repro.net.server import StoreServer

        srv = StoreServer(InMemoryStore())
        host, port = srv.start()
        try:
            client = CacheClient(host, port)
            with pytest.raises(WireError):
                client.set(b"k", b"v", ttl=5)
            client.close()
        finally:
            srv.stop()

    def test_sql_backend_process(self, tmp_path):
        """The benchmark configuration: sqlite served by a child process."""
        from repro.kv import RemoteKeyValueStore

        handle = ServerHandle.spawn_process(
            backend="sql", database=str(tmp_path / "served.db")
        )
        try:
            remote = RemoteKeyValueStore(handle.host, handle.port)
            remote.put("k", [1, 2, 3])
            assert remote.get("k") == [1, 2, 3]
            remote.close()
        finally:
            handle.stop()


class TestProcessMode:
    def test_spawned_process_serves_requests(self):
        handle = ServerHandle.spawn_process()
        try:
            client = CacheClient(handle.host, handle.port)
            client.set(b"k", b"from-child-process")
            assert client.get(b"k") == b"from-child-process"
            client.close()
        finally:
            handle.stop()

    def test_stop_is_idempotent(self):
        handle = ServerHandle.spawn_process()
        handle.stop()
        handle.stop()

    def test_stop_closes_the_child_pipe(self):
        handle = ServerHandle.spawn_process()
        process = handle._process
        handle.stop()
        assert process.returncode is not None and process.stdout.closed

    @pytest.mark.parametrize(
        "script, reason",
        [("import time; time.sleep(60)", "readiness"), ("pass", "exited during startup")],
        ids=["silent", "exits"],
    )
    def test_failed_startup_reaps_the_child(self, monkeypatch, script, reason):
        """A child that never announces LISTENING -- silent, or gone -- is
        given up on within startup_timeout, killed, reaped, pipe closed."""
        import subprocess
        import sys

        spawned = []
        real_popen = subprocess.Popen

        def stand_in(cmd, **kwargs):
            spawned.append(real_popen([sys.executable, "-c", script], **kwargs))
            return spawned[-1]

        monkeypatch.setattr(subprocess, "Popen", stand_in)
        began = time.monotonic()
        with pytest.raises(StoreConnectionError, match=reason):
            ServerHandle.spawn_process(startup_timeout=0.5)
        assert time.monotonic() - began < 3
        (process,) = spawned
        assert process.returncode is not None and process.stdout.closed
