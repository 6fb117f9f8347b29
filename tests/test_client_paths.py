"""One way to the socket and one way through the cluster.

Every request a :class:`~repro.net.client.CacheClient` sends is written in
one stream write and flush, a fresh cluster connection's ``CEPOCH``
included, and the smart cluster client reacts to ``-MOVED`` the same way
for one key as for a batch (``docs/cluster.md``).  Counted, not clocked.
"""

from __future__ import annotations

import socket

import pytest

from repro.cluster import ClusterCoordinator
from repro.errors import StoreConnectionError
from repro.kv import InMemoryStore
from repro.net.client import CacheClient, ClusterAwareClient
from repro.net.protocol import encode_command


class CountingStream:
    """Forwards to a client's stream, recording every write and flush."""

    def __init__(self, stream) -> None:
        self._stream = stream
        self.writes: list[bytes] = []
        self.flushes = 0

    def write(self, data):
        self.writes.append(bytes(data))
        return self._stream.write(data)

    def flush(self):
        self.flushes += 1
        return self._stream.flush()

    def __getattr__(self, name):
        return getattr(self._stream, name)


def count_connections(client, monkeypatch) -> list[CountingStream]:
    """Wrap the stream of every connection *client* opens from now on."""
    streams: list[CountingStream] = []
    connect = client._connect

    def counting_connect(timeout):
        connect(timeout)
        streams.append(CountingStream(client._stream))
        client._stream = streams[-1]

    monkeypatch.setattr(client, "_connect", counting_connect)
    return streams


def test_a_command_is_one_write_and_one_flush(cache_server, monkeypatch):
    client = CacheClient(cache_server.host, cache_server.port)
    streams = count_connections(client, monkeypatch)
    client.set(b"one", b"v")
    assert client.get(b"one") == b"v"
    client.mset({b"two": b"w", b"three": b"x"})
    assert client.mget([b"two", b"three"]) == [b"w", b"x"]
    (stream,) = streams
    assert stream.writes == [
        encode_command(["SET", b"one", b"v"]),
        encode_command(["GET", b"one"]),
        encode_command(["MSET", b"two", b"w", b"three", b"x"]),
        encode_command(["MGET", b"two", b"three"]),
    ]
    assert stream.flushes == 4
    client.delete(b"one", b"two", b"three")
    client.close()


def test_a_reconnect_declares_the_epoch_in_the_first_write(cache_server, monkeypatch):
    client = ClusterAwareClient(
        cache_server.host, cache_server.port, epoch_source=lambda: 7
    )
    streams = count_connections(client, monkeypatch)
    client.set(b"declared", b"v")
    client._sock.shutdown(socket.SHUT_RDWR)  # the connection drops under the client
    assert client.get(b"declared") == b"v"
    assert client.get(b"declared") == b"v"  # the CEPOCH reply was not taken for this one
    assert client.reconnects == 1
    cepoch = encode_command(["CEPOCH", "7"])
    get = encode_command(["GET", b"declared"])
    assert [stream.writes for stream in streams] == [
        [cepoch + encode_command(["SET", b"declared", b"v"]), get],
        [cepoch + get, get],
    ]
    client.delete(b"declared")
    client.close()


@pytest.mark.parametrize(
    "op",
    [
        lambda client, key: client.get(key),
        lambda client, key: client.get_many([key, "other"]),
    ],
    ids=["one-key", "batch"],
)
def test_moved_with_a_failed_refresh_raises(op, monkeypatch):
    """The refresh asks the named member first; when no member answers it,
    the operation fails rather than trusting the redirect alone."""
    with ClusterCoordinator() as coordinator:
        coordinator.add_shard("a", InMemoryStore())
        with coordinator.client() as client:
            before = coordinator.topology
            coordinator.add_shard("b", InMemoryStore())
            after = coordinator.topology
            key = next(
                key
                for key in (f"k{i}" for i in range(1000))
                if before.owner(key) != after.owner(key)
            )

            def unreachable(prefer=None):
                raise StoreConnectionError("no member answered TOPOLOGY")

            monkeypatch.setattr(client, "_refresh_topology", unreachable)
            with pytest.raises(StoreConnectionError, match="TOPOLOGY"):
                op(client, key)
            assert client.redirects == 1
