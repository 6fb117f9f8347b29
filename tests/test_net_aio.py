"""The serving engines behind one contract: every wire-visible behaviour
tested here runs against BOTH the threaded server and the reactor engine,
parametrized over ``engine`` -- the compatibility matrix docs/serving.md
promises is enforced, not asserted.  Async-only behaviour (idempotent
stop, reactor teardown, SHUTDOWN-from-the-wire, max_clients, backpressure
and leak-freedom) has its own classes below."""

from __future__ import annotations

import os
import selectors
import socket
import threading
import time

import pytest

from repro.errors import StoreConnectionError
from repro.kv.memory import InMemoryStore
from repro.net import (
    AsyncCacheServer,
    AsyncStoreServer,
    CacheClient,
    CacheServer,
    ServerHandle,
    StoreServer,
)
from repro.net import aio, protocol
from repro.net.client import SubscriberClient
from repro.net.protocol import WireError

ENGINES = ("threaded", "async")


def make_cache_server(engine: str, **kwargs):
    if engine == "async":
        return AsyncCacheServer(**kwargs)
    return CacheServer(**kwargs)


def make_store_server(engine: str, store, **kwargs):
    if engine == "async":
        return AsyncStoreServer(store, **kwargs)
    return StoreServer(store, **kwargs)


@pytest.fixture(params=ENGINES)
def engine(request):
    return request.param


@pytest.fixture()
def server(engine):
    srv = make_cache_server(engine)
    srv.start()
    yield srv
    srv.stop()


@pytest.fixture()
def client(server):
    c = CacheClient(*server.address)
    yield c
    c.close()


class TestEngineContract:
    """The same client, the same commands, either engine."""

    def test_ping_set_get(self, client):
        assert client.ping()
        client.set(b"k", b"value")
        assert client.get(b"k") == b"value"
        assert client.get(b"absent") is None

    def test_binary_safety(self, client):
        key = bytes(range(256))
        value = b"\r\n$*+-:" * 50 + bytes(range(256))
        client.set(key, value)
        assert client.get(key) == value

    def test_multi_key_commands(self, client):
        client.mset({b"a": b"1", b"b": b"2"})
        assert client.mget([b"a", b"b", b"c"]) == [b"1", b"2", None]
        assert client.delete(b"a", b"b", b"zz") == 2

    def test_ttl_round_trip(self, client):
        client.set(b"t", b"v", ttl=100)
        assert 0 < client.ttl(b"t") <= 100
        assert client.ttl(b"absent") == -2

    def test_errors_are_wire_errors(self, client):
        assert isinstance(client._roundtrip(["NOSUCH"]), WireError)  # noqa: SLF001
        assert isinstance(client._roundtrip(["GET"]), WireError)  # noqa: SLF001

    def test_stats_reports_engine(self, server, client, engine):
        client.set(b"k", b"v")
        stats = client.stats()
        assert stats["server.engine"] == engine
        assert int(stats["server.connections"]) >= 1
        assert int(stats["cmd.set.calls"]) >= 1
        assert float(stats["server.uptime_seconds"]) >= 0.0

    def test_quit_closes_connection(self, server):
        c = CacheClient(*server.address)
        reply = c._roundtrip(["QUIT"])  # noqa: SLF001
        assert reply == protocol.SimpleString("OK")
        c.close()

    def test_quit_flushes_replies_larger_than_one_send(self, server):
        """QUIT pipelined behind ~8 MiB of replies: every reply, then +OK,
        then EOF -- the connection closes only once its replies are out."""
        value = bytes(range(256)) * 1024  # 256 KiB
        sock = socket.create_connection(server.address, timeout=10)
        sock.sendall(protocol.encode_command(["SET", b"big", value]))
        reader = protocol.FrameReader(sock.makefile("rb"))
        assert reader.read_frame() == protocol.SimpleString("OK")
        sock.sendall(
            protocol.encode_command(["GET", b"big"]) * 32 + protocol.encode_command(["QUIT"])
        )
        for _ in range(32):
            assert reader.read_frame() == value
        assert reader.read_frame() == protocol.SimpleString("OK")
        assert sock.recv(1) == b""
        sock.close()

    def test_concurrent_clients(self, server):
        errors: list[Exception] = []

        def hammer(index: int) -> None:
            try:
                c = CacheClient(*server.address)
                for op in range(20):
                    key = f"c{index}:{op}".encode()
                    c.set(key, str(op).encode())
                    assert c.get(key) == str(op).encode()
                c.close()
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

    def test_pubsub_fanout(self, server, client):
        received: list[tuple[bytes, bytes]] = []
        sub = SubscriberClient(*server.address)
        sub.subscribe(b"chan", lambda ch, p: received.append((ch, p)))
        assert client.publish(b"chan", b"payload") == 1
        deadline = time.monotonic() + 2
        while not received and time.monotonic() < deadline:
            time.sleep(0.01)
        assert received == [(b"chan", b"payload")]
        sub.close()
        # after close, publishes stop reaching the subscriber -- the server
        # drops it once a push hits the dead socket, so poll briefly
        deadline = time.monotonic() + 2
        while time.monotonic() < deadline:
            if client.publish(b"chan", b"again") == 0:
                break
            time.sleep(0.01)
        else:
            pytest.fail("closed subscriber was never dropped")


class TestPipelining:
    """Pipelined requests over a real socket, both engines."""

    def test_client_pipeline_round_trips(self, client):
        pipe = client.pipeline()
        for i in range(50):
            pipe.set(f"p{i}".encode(), str(i).encode())
        for i in range(50):
            pipe.get(f"p{i}".encode())
        replies = pipe.execute()
        assert len(replies) == 100
        assert replies[50 + 7] == b"7"

    def test_raw_socket_burst_replies_in_order(self, server):
        """Many requests in ONE send; replies must come back in order."""
        sock = socket.create_connection(server.address, timeout=5)
        burst = b"".join(
            protocol.encode_command(["SET", f"k{i}".encode(), f"v{i}".encode()])
            for i in range(30)
        ) + b"".join(protocol.encode_command(["GET", f"k{i}".encode()]) for i in range(30))
        sock.sendall(burst)
        reader = protocol.FrameReader(sock.makefile("rb"))
        for _ in range(30):
            assert reader.read_frame() == protocol.SimpleString("OK")
        for i in range(30):
            assert reader.read_frame() == f"v{i}".encode()
        sock.close()

    def test_split_frame_across_packets(self, server):
        """A request torn across TCP segments must still parse."""
        sock = socket.create_connection(server.address, timeout=5)
        payload = protocol.encode_command(["SET", b"torn", b"x" * 1000])
        middle = len(payload) // 2
        sock.sendall(payload[:middle])
        time.sleep(0.05)
        sock.sendall(payload[middle:])
        sock.sendall(protocol.encode_command(["GET", b"torn"]))
        reader = protocol.FrameReader(sock.makefile("rb"))
        assert reader.read_frame() == protocol.SimpleString("OK")
        assert reader.read_frame() == b"x" * 1000
        sock.close()

    def test_command_spanning_many_reads_then_pipelined_tail(self, server):
        """A ~600 KB MSET arrives over many socket reads; the engine keeps
        its parse progress, answers once, and still serves the GET that
        shares the last segment."""
        sock = socket.create_connection(server.address, timeout=5)
        args: list[bytes] = [b"MSET"]
        for i in range(600):
            args += [f"big{i:04d}".encode(), bytes([i % 251]) * 1000]
        tail = protocol.encode_command(["GET", b"big0599"])
        sock.sendall(protocol.encode_command(args) + tail)
        reader = protocol.FrameReader(sock.makefile("rb"))
        assert reader.read_frame() == protocol.SimpleString("OK")
        assert reader.read_frame() == bytes([599 % 251]) * 1000
        sock.close()

    def test_large_mset_sent_in_4k_slices_arrives_intact(self, server):
        """A 2 000-pair MSET written 4 KiB at a time: the engine resumes
        the torn request on every read and stores every pair."""
        sock = socket.create_connection(server.address, timeout=5)
        args: list[bytes] = [b"MSET"]
        for i in range(2000):
            args += [b"slice-%07d" % i, b"%037d" % i]
        payload = protocol.encode_command(args) + protocol.encode_command(["DBSIZE"])
        for offset in range(0, len(payload), 4096):
            sock.sendall(payload[offset:offset + 4096])
        reader = protocol.FrameReader(sock.makefile("rb"))
        assert reader.read_frame() == protocol.SimpleString("OK")
        assert reader.read_frame() == 2000
        sock.sendall(protocol.encode_command(["MGET", b"slice-0000000", b"slice-0001999"]))
        assert reader.read_frame() == [b"%037d" % 0, b"%037d" % 1999]
        sock.close()

    def test_pipeline_error_does_not_poison_batch(self, client):
        replies = client.execute_pipeline(
            [["SET", b"a", b"1"], ["NOSUCH"], ["GET", b"a"]]
        )
        assert replies[0] == protocol.SimpleString("OK")
        assert isinstance(replies[1], WireError)
        assert replies[2] == b"1"

    def test_malformed_frame_gets_error_then_drop(self, server):
        sock = socket.create_connection(server.address, timeout=5)
        sock.sendall(b"!!!not a frame\r\n")
        data = sock.recv(1024)
        assert data.startswith(b"-ERR protocol error")
        # server closes after the error report
        assert sock.recv(1024) == b""
        sock.close()


class TestStoreServerEngines:
    """StoreServer semantics hold on either engine."""

    @pytest.fixture(params=ENGINES)
    def store_server(self, request):
        store = InMemoryStore()
        srv = make_store_server(request.param, store)
        srv.start()
        yield srv, store
        srv.stop()

    def test_writes_reach_the_store(self, store_server):
        srv, store = store_server
        c = CacheClient(*srv.address)
        c.set(b"k", b"payload")
        assert store.get("k") == b"payload"
        assert c.get(b"k") == b"payload"
        c.close()

    def test_ttl_rejected(self, store_server):
        srv, _store = store_server
        c = CacheClient(*srv.address)
        reply = c._roundtrip(["SETEX", b"k", b"5", b"v"])  # noqa: SLF001
        assert isinstance(reply, WireError)
        c.close()


class TestAsyncLifecycle:
    """Async-engine specifics: shutdown, teardown, connection drops."""

    def test_stop_is_idempotent_and_releases_port(self):
        srv = AsyncCacheServer()
        host, port = srv.start()
        before = threading.active_count()
        srv.stop()
        srv.stop()  # second stop must be a no-op
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=0.5).close()
        # the loop thread is joined, not leaked
        deadline = time.monotonic() + 2
        while threading.active_count() > before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not any(
            t.name == "aio-server-loop" and t.is_alive() for t in threading.enumerate()
        )

    def test_start_twice_returns_same_address(self):
        srv = AsyncCacheServer()
        first = srv.start()
        assert srv.start() == first
        srv.stop()

    def test_stop_drops_live_connections(self):
        srv = AsyncCacheServer()
        srv.start()
        c = CacheClient(*srv.address)
        assert c.ping()
        srv.stop()
        with pytest.raises(StoreConnectionError):
            c.ping()
        c.close()

    def test_shutdown_command_stops_engine(self):
        srv = AsyncCacheServer()
        host, port = srv.start()
        c = CacheClient(host, port)
        c.shutdown_server()
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            try:
                socket.create_connection((host, port), timeout=0.2).close()
            except OSError:
                break
            time.sleep(0.05)
        else:
            pytest.fail("port still accepting after SHUTDOWN")
        c.close()
        srv.stop()  # idempotent with the wire-initiated stop

    def test_client_disconnect_mid_pipeline_is_survived(self):
        """A peer vanishing mid-burst must not take the engine down."""
        srv = AsyncCacheServer()
        srv.start()
        sock = socket.create_connection(srv.address, timeout=5)
        sock.sendall(
            b"".join(
                protocol.encode_command(["SET", f"d{i}".encode(), b"v" * 512])
                for i in range(100)
            )
        )
        sock.close()  # never read the replies
        c = CacheClient(*srv.address)
        assert c.ping()  # engine is still serving
        c.close()
        srv.stop()

    def test_server_handle_stop_idempotent(self):
        handle = ServerHandle.start_in_thread(engine="async")
        c = CacheClient(handle.host, handle.port)
        assert c.ping()
        c.close()
        handle.stop()
        handle.stop()  # regression: second stop must not raise or hang

    def test_obs_metrics_move(self):
        srv = AsyncCacheServer()
        srv.start()
        c = CacheClient(*srv.address)
        pipe = c.pipeline()
        for i in range(10):
            pipe.set(f"m{i}".encode(), b"v")
        pipe.execute()
        snapshot = srv.obs.registry.snapshot()
        assert snapshot["counters"]["server.connections_total"] >= 1
        assert snapshot["counters"]["net.aio.pipelined"] >= 1
        assert snapshot["counters"]["server.cmd.set.calls"] >= 10
        c.close()
        srv.stop()


class TestReactorEdges:
    """What the reactor owes a peer that reads slowly or not at all."""

    def test_backpressure_stops_reading_a_peer_that_never_reads(self):
        """A peer pipelines GETs of 4 KiB values and never reads.  The
        engine stops reading its requests, so the unsent replies stay under
        the high-water mark plus one burst, and other clients are served."""
        srv = AsyncCacheServer()
        srv.start()
        key, value = b"k" * 1000, b"v" * 4096
        c = CacheClient(*srv.address)
        c.set(key, value)
        request = protocol.encode_command(["GET", key])
        reply_size = len(protocol.encode_bulk(value))
        one_burst = (aio.READ_CHUNK // len(request) + 1) * reply_size
        peer = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        peer.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 64 * 1024)
        peer.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 64 * 1024)
        peer.connect(srv.address)
        peer.settimeout(0.5)
        sent = 0
        try:
            while sent < 8000:  # 32 MiB of replies owed, far beyond any socket buffer
                peer.sendall(request * 16)
                sent += 16
        except socket.timeout:
            pass  # the engine stopped reading and every buffer is full
        try:
            assert sent < 8000, "the engine never stopped reading the peer"
            [connection] = [x for x in srv._connections if x.unsent]  # noqa: SLF001
            assert aio.WRITE_HIGH_WATER < len(connection.unsent) <= aio.WRITE_HIGH_WATER + one_burst
            assert not connection.events & selectors.EVENT_READ
            assert srv.commands_served - 1 < sent  # not every GET was read (1 is the SET)
            assert c.ping()  # a second client is still answered
        finally:
            peer.close()
            c.close()
            srv.stop()

    def test_publish_reaches_a_subscriber_with_unsent_bytes(self):
        """PUBLISH to a subscriber whose earlier replies are still queued in
        the engine: the message goes out after them, not lost or spliced."""
        srv = AsyncCacheServer()
        srv.start()
        value = b"x" * 65536
        publisher = CacheClient(*srv.address)
        publisher.set(b"big", value)
        sub = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sub.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 64 * 1024)
        sub.connect(srv.address)
        sub.settimeout(10)
        reader = protocol.FrameReader(sub.makefile("rb"))
        try:
            sub.sendall(protocol.encode_command(["SUBSCRIBE", b"chan"]))
            assert reader.read_frame()[0] == b"subscribe"
            [connection] = srv.core._subscribers[b"chan"]  # noqa: SLF001
            gets = 0
            deadline = time.monotonic() + 5
            while not connection.unsent and time.monotonic() < deadline:
                sub.sendall(protocol.encode_command(["GET", b"big"]) * 8)
                gets += 8
                time.sleep(0.01)
            assert connection.unsent, "the subscriber's replies never backed up"
            assert publisher.publish(b"chan", b"payload") == 1
            for _ in range(gets):
                assert reader.read_frame() == value
            assert reader.read_frame() == [b"message", b"chan", b"payload"]
        finally:
            sub.close()
            publisher.close()
            srv.stop()

    def test_start_stop_cycles_leak_no_fd_or_thread(self):
        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("needs /proc/self/fd")

        def cycle() -> None:
            srv = AsyncCacheServer()
            srv.start()
            c = CacheClient(*srv.address)
            assert c.ping()
            srv.stop()
            c.close()

        cycle()  # first use pays any lazy set-up
        fds, threads = len(os.listdir("/proc/self/fd")), threading.active_count()
        for _ in range(50):
            cycle()
        assert len(os.listdir("/proc/self/fd")) == fds
        assert threading.active_count() == threads

    def test_a_started_and_served_engine_never_loads_asyncio(self, fresh_interpreter):
        out = fresh_interpreter(
            "import sys\n"
            "from repro.net.aio import AsyncCacheServer\n"
            "from repro.net.client import CacheClient\n"
            "srv = AsyncCacheServer(); srv.start()\n"
            "c = CacheClient(*srv.address); c.set(b'k', b'v'); assert c.get(b'k') == b'v'\n"
            "c.close(); srv.stop()\n"
            "print('asyncio' in sys.modules)\n"
        )
        assert out.strip() == "False"

    def test_a_failing_handler_drops_only_its_connection(self, capsys):
        class BrokenStore(InMemoryStore):
            def get(self, key):
                raise RuntimeError("bug in the store")

        srv = AsyncStoreServer(BrokenStore())
        srv.start()
        try:
            broken = CacheClient(*srv.address)
            with pytest.raises(StoreConnectionError):
                broken.get(b"k")
            broken.close()
            c = CacheClient(*srv.address)
            assert c.ping()
            c.close()
        finally:
            srv.stop()
        assert "bug in the store" in capsys.readouterr().err


class TestMaxClients:
    def test_async_rejects_beyond_bound(self):
        srv = AsyncCacheServer(max_clients=2)
        srv.start()
        keep = [CacheClient(*srv.address) for _ in range(2)]
        for c in keep:
            assert c.ping()
        extra = socket.create_connection(srv.address, timeout=5)
        data = extra.recv(1024)
        assert data.startswith(b"-ERR max number of clients")
        extra.close()
        stats = keep[0].stats()
        assert stats["server.rejected_clients"] == "1"
        assert stats["server.max_clients"] == "2"
        for c in keep:
            c.close()
        srv.stop()

    def test_threaded_rejects_beyond_bound(self):
        srv = CacheServer(max_clients=2)
        srv.start()
        keep = [CacheClient(*srv.address) for _ in range(2)]
        for c in keep:
            assert c.ping()
        # rejection happens on accept; retry briefly while threads settle
        deadline = time.monotonic() + 2
        rejected = False
        while time.monotonic() < deadline and not rejected:
            extra = socket.create_connection(srv.address, timeout=5)
            data = extra.recv(1024)
            extra.close()
            rejected = data.startswith(b"-ERR max number of clients")
            if not rejected:
                time.sleep(0.05)
        assert rejected
        for c in keep:
            c.close()
        srv.stop()

    def test_slot_freed_after_disconnect(self):
        srv = AsyncCacheServer(max_clients=1)
        srv.start()
        first = CacheClient(*srv.address)
        assert first.ping()
        first.close()
        deadline = time.monotonic() + 2
        while time.monotonic() < deadline:
            second = CacheClient(*srv.address)
            try:
                if second.ping():
                    second.close()
                    break
            except (StoreConnectionError, WireError):
                time.sleep(0.02)
            finally:
                second.close()
        else:
            pytest.fail("slot was not released after disconnect")
        srv.stop()


class TestFdBudgetProbe:
    """ASYNC_MAX_CLIENTS follows the process fd budget, not a magic 4096."""

    def test_probe_matches_rlimit(self):
        resource = pytest.importorskip("resource")
        from repro.net.aio import FD_HEADROOM, probe_fd_budget

        soft, _hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        expected = max(128, min(soft - FD_HEADROOM, 1 << 20))
        assert probe_fd_budget() == expected

    def test_floor_and_headroom(self):
        from repro.net.aio import probe_fd_budget

        resource = pytest.importorskip("resource")
        soft, _hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        # A headroom larger than the soft limit cannot drive the bound to
        # zero: the floor keeps the server able to accept at all.
        assert probe_fd_budget(headroom=soft + 10_000) == 128

    def test_module_default_uses_probe(self):
        from repro.net import aio

        assert aio.ASYNC_MAX_CLIENTS == aio.probe_fd_budget()
        assert aio.ASYNC_MAX_CLIENTS >= 128

    def test_started_event_reports_bound(self):
        from repro.obs import EventLog, Observability

        obs = Observability(events=EventLog())
        srv = AsyncCacheServer(max_clients=77, obs=obs)
        srv.start()
        try:
            [event] = obs.events.tail(kind="aio_server_started")
            assert event["max_clients"] == 77
        finally:
            srv.stop()
