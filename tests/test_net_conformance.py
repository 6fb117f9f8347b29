"""Byte-level conformance transcript for the wire protocol.

One list of ``(request frames, expected reply bytes)`` replayed over a raw
socket against every (engine x backend) variant -- ``CacheServer``,
``AsyncCacheServer``, ``StoreServer(InMemoryStore())`` and
``AsyncStoreServer(InMemoryStore())``.  Nothing here uses the library's
client or frame reader: requests are hand-encoded and replies are cut out
of the stream by :func:`read_frame` below, so the contract is the bytes.

Only ``SETEX``/``TTL``/``SAVE`` have per-backend expectations (a hosted
store has no TTLs and owns its durability); every other reply must be
identical on all four variants.
"""

from __future__ import annotations

import hashlib
import pickle
import re
import socket

import pytest

from repro.errors import WalPoisonedError
from repro.kv import InMemoryStore
from repro.net import AsyncCacheServer, AsyncStoreServer, CacheServer, StoreServer
from repro.net.client import CacheClient
from repro.net.protocol import WireError
from repro.net.server import COMMANDS

VARIANTS = {
    "threaded-cache": lambda: CacheServer(),
    "async-cache": lambda: AsyncCacheServer(),
    "threaded-store": lambda: StoreServer(InMemoryStore()),
    "async-store": lambda: AsyncStoreServer(InMemoryStore()),
}

BINARY_KEY = bytes(range(256))
TRICKY_VALUE = b"a\r\n$-1\r\nb" + bytes(range(256))


def request(*args: bytes) -> bytes:
    return b"*%d\r\n" % len(args) + b"".join(
        b"$%d\r\n%s\r\n" % (len(arg), arg) for arg in args
    )


def bulk(data: bytes) -> bytes:
    return b"$%d\r\n%s\r\n" % (len(data), data)


def arity(name: str, detail: str) -> bytes:
    return f"-ERR wrong number of arguments for '{name}': {detail}\r\n".encode()


def read_frame(stream) -> bytes:
    """The raw bytes of exactly one reply frame (arrays recurse)."""
    line = stream.readline()
    assert line.endswith(b"\r\n"), f"truncated frame header {line!r}"
    marker, count = line[:1], line[1:-2]
    if marker == b"$" and count != b"-1":
        return line + stream.read(int(count) + 2)
    if marker == b"*":
        return line + b"".join(read_frame(stream) for _ in range(int(count)))
    assert marker in b"+-:$", f"unknown frame marker in {line!r}"
    return line


NO_TTL = b"-ERR TTLs are not supported by a store server\r\n"
OK = b"+OK\r\n"
NIL = b"$-1\r\n"


def by_backend(cache: bytes, store: bytes) -> dict[str, bytes]:
    return {"cache": cache, "store": store}


#: (requests sent in ONE ``send``, one expected reply per request).  An
#: expectation is bytes, a compiled pattern (variable payloads) or a
#: ``by_backend`` dict.
TRANSCRIPT: list[tuple[list[bytes], list]] = [
    # -- PING ------------------------------------------------------------
    ([request(b"PING")], [b"+PONG\r\n"]),
    ([request(b"PING", b"hello")], [bulk(b"hello")]),
    ([request(b"pInG")], [b"+PONG\r\n"]),
    # -- SET / GET / EXISTS / GETVER -------------------------------------
    ([request(b"FLUSHALL")], [OK]),
    ([request(b"GET", b"missing")], [NIL]),
    ([request(b"SET", b"k", b"v1")], [OK]),
    ([request(b"GET", b"k")], [bulk(b"v1")]),
    ([request(b"gEt", b"k")], [bulk(b"v1")]),
    ([request(b"SET", b"k", b"")], [OK]),
    ([request(b"GET", b"k")], [bulk(b"")]),
    ([request(b"SET", BINARY_KEY, TRICKY_VALUE)], [OK]),
    ([request(b"GET", BINARY_KEY)], [bulk(TRICKY_VALUE)]),
    ([request(b"EXISTS", BINARY_KEY)], [b":1\r\n"]),
    ([request(b"EXISTS", b"missing")], [b":0\r\n"]),
    (
        [request(b"GETVER", BINARY_KEY)],
        [bulk(hashlib.sha1(TRICKY_VALUE).hexdigest().encode())],
    ),
    ([request(b"GETVER", b"missing")], [NIL]),
    ([request(b"GET")], [arity("GET", "expected 1, got 0")]),
    ([request(b"get", b"a", b"b")], [arity("GET", "expected 1, got 2")]),
    ([request(b"SET", b"k")], [arity("SET", "expected 2, got 1")]),
    ([request(b"EXISTS")], [arity("EXISTS", "expected 1, got 0")]),
    ([request(b"GETVER", b"a", b"b")], [arity("GETVER", "expected 1, got 2")]),
    # -- DEL / MGET / MSET / KEYS / DBSIZE / FLUSHALL --------------------
    ([request(b"DEL", b"k", BINARY_KEY, b"missing")], [b":2\r\n"]),
    ([request(b"DEL")], [arity("DEL", "expected at least 1")]),
    ([request(b"DBSIZE")], [b":0\r\n"]),
    ([request(b"MSET", b"a", b"1", b"b", b"2")], [OK]),
    ([request(b"MGET", b"a", b"missing", b"b")], [b"*3\r\n" + bulk(b"1") + NIL + bulk(b"2")]),
    ([request(b"KEYS")], [b"*2\r\n" + bulk(b"a") + bulk(b"b")]),
    ([request(b"DBSIZE")], [b":2\r\n"]),
    ([request(b"MSET")], [arity("MSET", "expected an even, non-zero number")]),
    ([request(b"MSET", b"a", b"1", b"b")], [arity("MSET", "expected an even, non-zero number")]),
    ([request(b"MGET")], [arity("MGET", "expected at least 1")]),
    ([request(b"FLUSHALL")], [OK]),
    ([request(b"KEYS")], [b"*0\r\n"]),
    # -- SETEX / TTL / SAVE: the three commands only the cache keyspace has
    ([request(b"SETEX", b"t", b"1000", b"v")], [by_backend(OK, NO_TTL)]),
    ([request(b"TTL", b"t")], [by_backend(re.compile(rb":(999|1000)\r\n"), NO_TTL)]),
    ([request(b"GET", b"t")], [by_backend(bulk(b"v"), NIL)]),
    ([request(b"SET", b"p", b"v")], [OK]),
    ([request(b"TTL", b"p")], [by_backend(b":-1\r\n", NO_TTL)]),
    ([request(b"TTL", b"missing")], [by_backend(b":-2\r\n", NO_TTL)]),
    ([request(b"SETEX", b"t", b"0", b"v")], [by_backend(b"-ERR invalid TTL\r\n", NO_TTL)]),
    ([request(b"SETEX", b"t", b"soon", b"v")], [by_backend(b"-ERR invalid TTL\r\n", NO_TTL)]),
    # On a hosted store the capability answer wins even over a wrong arity.
    ([request(b"SETEX", b"k")], [by_backend(arity("SETEX", "expected 3, got 1"), NO_TTL)]),
    ([request(b"TTL")], [by_backend(arity("TTL", "expected 1, got 0"), NO_TTL)]),
    (
        [request(b"SAVE")],
        [
            by_backend(
                b"-ERR no snapshot path configured\r\n",
                b"-ERR the hosted store owns its durability\r\n",
            )
        ],
    ),
    ([request(b"FLUSHALL")], [OK]),
    # -- STATS / cluster commands on a standalone server -----------------
    (
        [request(b"STATS")],
        [re.compile(rb"\*\d+\r\n\$21\r\nserver\.uptime_seconds\r\n.*\$13\r\nserver\.engine\r\n\$(5\r\nasync|8\r\nthreaded)\r\n.*", re.S)],
    ),
    ([request(b"TOPOLOGY")], [b"-ERR this server is not part of a cluster\r\n"]),
    ([request(b"CEPOCH", b"0")], [OK]),
    ([request(b"CEPOCH", b"0", b"1")], [arity("CEPOCH", "expected 1, got 2")]),
    ([request(b"CEPOCH", b"x")], [b"-ERR invalid CEPOCH arguments\r\n"]),
    ([request(b"CEPOCH", b"-1")], [b"-ERR CEPOCH wants epoch >= 0\r\n"]),
    ([request(b"CEPOCH")], [arity("CEPOCH", "expected 1, got 0")]),
    ([request(b"CEPOCH", b"1", b"2", b"3")], [arity("CEPOCH", "expected 1, got 3")]),
    # -- pub/sub arity (delivery is test_publish_reaches_a_subscriber) ----
    ([request(b"PUBLISH", b"nobody", b"x")], [b":0\r\n"]),
    ([request(b"PUBLISH", b"chan")], [arity("PUBLISH", "expected 2, got 1")]),
    ([request(b"SUBSCRIBE")], [arity("SUBSCRIBE", "expected 1, got 0")]),
    ([request(b"UNSUBSCRIBE")], [arity("UNSUBSCRIBE", "expected 1, got 0")]),
    ([request(b"UNSUBSCRIBE", b"never-joined")], [OK]),
    # -- names that are not commands -------------------------------------
    ([request(b"NOPE")], [b"-ERR unknown command 'NOPE'\r\n"]),
    ([request(b"nope", b"arg")], [b"-ERR unknown command 'NOPE'\r\n"]),
    ([request(b"\xff\xfe")], ["-ERR unknown command '��'\r\n".encode()]),
    # Bugfix: the parent resolved these two client-supplied names to the
    # server's ``_cmd_handles`` dict / lock and crashed the connection.
    ([request(b"HANDLES")], [b"-ERR unknown command 'HANDLES'\r\n"]),
    ([request(b"handles_lock")], [b"-ERR unknown command 'HANDLES_LOCK'\r\n"]),
    # -- pipelining: many requests in one send, replies in order ----------
    (
        [
            request(b"SET", b"p1", b"x"),
            request(b"GET", b"p1"),
            request(b"GET"),
            request(b"NOPE"),
            request(b"DEL", b"p1"),
            request(b"GET", b"p1"),
        ],
        [OK, bulk(b"x"), arity("GET", "expected 1, got 0"), b"-ERR unknown command 'NOPE'\r\n", b":1\r\n", NIL],
    ),
    # -- QUIT answers, then closes (checked by the replay loop) -----------
    ([request(b"QUIT")], [OK]),
]


def _matches(expected, backend: str, reply: bytes) -> bool:
    if isinstance(expected, dict):
        expected = expected[backend]
    if isinstance(expected, re.Pattern):
        return expected.fullmatch(reply) is not None
    return reply == expected


@pytest.fixture(params=sorted(VARIANTS))
def variant(request):
    server = VARIANTS[request.param]()
    server.start()
    yield request.param.split("-")[1], server
    server.stop()


def test_transcript(variant):
    backend, server = variant
    sock = socket.create_connection(server.address, timeout=5)
    stream = sock.makefile("rb")
    try:
        for step, (requests, expectations) in enumerate(TRANSCRIPT):
            sock.sendall(b"".join(requests))
            for expected in expectations:
                reply = read_frame(stream)
                assert _matches(expected, backend, reply), (
                    f"step {step} {requests!r}: got {reply!r}, want {expected!r}"
                )
        assert stream.read(1) == b"", "QUIT must close the connection"
    finally:
        stream.close()
        sock.close()


def test_transcript_covers_every_command_and_arity_error():
    """Adding a table row without a transcript line fails here."""
    sent = {
        frame.split(b"\r\n")[2].upper()
        for requests, _ in TRANSCRIPT
        for frame in requests
    }
    # SHUTDOWN stops the server, so it has its own test below.
    assert sent >= set(COMMANDS) - {b"SHUTDOWN"}
    bounded = {name for name, row in COMMANDS.items() if row.arity != (0, None)}
    expected_bytes = [
        candidate
        for _, expectations in TRANSCRIPT
        for expected in expectations
        for candidate in (expected.values() if isinstance(expected, dict) else [expected])
        if isinstance(candidate, bytes)
    ]
    arity_errors = {
        match.group(1)
        for candidate in expected_bytes
        if (match := re.match(rb"-ERR wrong number of arguments for '(\w+)'", candidate))
    }
    assert arity_errors == bounded


def test_publish_reaches_a_subscriber_on_a_second_connection(variant):
    _backend, server = variant
    subscriber = socket.create_connection(server.address, timeout=5)
    publisher = socket.create_connection(server.address, timeout=5)
    sub_stream, pub_stream = subscriber.makefile("rb"), publisher.makefile("rb")
    try:
        subscriber.sendall(request(b"SUBSCRIBE", b"chan"))
        assert read_frame(sub_stream) == b"*3\r\n" + bulk(b"subscribe") + bulk(b"chan") + b":1\r\n"
        publisher.sendall(request(b"PUBLISH", b"chan", TRICKY_VALUE))
        assert read_frame(pub_stream) == b":1\r\n"
        assert read_frame(sub_stream) == b"*3\r\n" + bulk(b"message") + bulk(b"chan") + bulk(TRICKY_VALUE)
        subscriber.sendall(request(b"UNSUBSCRIBE", b"chan"))
        assert read_frame(sub_stream) == OK
        publisher.sendall(request(b"PUBLISH", b"chan", b"again"))
        assert read_frame(pub_stream) == b":0\r\n"
    finally:
        for closable in (sub_stream, pub_stream, subscriber, publisher):
            closable.close()


def test_shutdown_answers_then_closes(variant):
    _backend, server = variant
    sock = socket.create_connection(server.address, timeout=5)
    stream = sock.makefile("rb")
    try:
        sock.sendall(request(b"SHUTDOWN"))
        assert read_frame(stream) == OK
        assert stream.read(1) == b""
    finally:
        stream.close()
        sock.close()


def test_malformed_frame_reports_once_then_drops(variant):
    _backend, server = variant
    sock = socket.create_connection(server.address, timeout=5)
    stream = sock.makefile("rb")
    try:
        sock.sendall(b"*1\r\n$-5\r\n")
        assert read_frame(stream) == b"-ERR protocol error\r\n"
        assert stream.read(1) == b""
    finally:
        stream.close()
        sock.close()


def test_unterminated_header_is_refused_not_buffered(variant):
    """A request header that never ends (``*`` then 200 000 digits, no
    CRLF) is a protocol error once it passes 64 bytes, on every engine:
    answered and dropped, never buffered without bound.  The socket
    timeout turns an unanswered request into a failure, not a hang."""
    _backend, server = variant
    sock = socket.create_connection(server.address, timeout=2)
    stream = sock.makefile("rb")
    try:
        try:
            sock.sendall(b"*" + b"9" * 200_000)
        except OSError:
            pass  # the server may drop the peer before taking every byte
        assert read_frame(stream) == b"-ERR protocol error\r\n"
        try:
            assert stream.read(1) == b""
        except ConnectionResetError:
            pass  # closed with our unread digits queued: a reset, not a FIN
    finally:
        stream.close()
        sock.close()


@pytest.mark.parametrize("engine_class", [CacheServer, AsyncCacheServer])
def test_snapshot_file_format_is_stable(tmp_path, engine_class):
    """SAVE writes, and start() warm-loads, ``{bytes key: (value, ttl)}``."""
    path = tmp_path / "snap.bin"
    path.write_bytes(pickle.dumps({BINARY_KEY: (b"old", None), b"t": (b"x", 500.0)}))
    server = engine_class(snapshot_path=path)
    server.start()
    sock = socket.create_connection(server.address, timeout=5)
    stream = sock.makefile("rb")
    try:
        sock.sendall(request(b"GET", BINARY_KEY) + request(b"TTL", b"t") + request(b"SET", b"n", b"new") + request(b"SAVE"))
        assert read_frame(stream) == bulk(b"old")
        assert re.fullmatch(rb":(499|500)\r\n", read_frame(stream))
        assert read_frame(stream) == OK
        assert read_frame(stream) == OK
    finally:
        stream.close()
        sock.close()
        server.stop()
    saved = pickle.loads(path.read_bytes())
    assert set(saved) == {BINARY_KEY, b"t", b"n"}
    assert saved[BINARY_KEY] == (b"old", None) and saved[b"n"] == (b"new", None)
    assert saved[b"t"][0] == b"x" and 0 < saved[b"t"][1] <= 500.0
    assert not path.with_suffix(".tmp").exists()


class _FailingStore(InMemoryStore):
    """A hosted store whose ``put`` fails the way a poisoned WAL does."""

    def __init__(self) -> None:
        super().__init__()
        self.put_calls = 0

    def put(self, key, value):
        self.put_calls += 1
        raise WalPoisonedError("segment 7 failed fsync")


@pytest.mark.parametrize("server_class", [StoreServer, AsyncStoreServer])
def test_store_error_is_one_reply_one_execution_and_a_live_connection(server_class):
    """Bugfix: a failing store used to drop the connection, and the client
    silently reconnected and re-sent the write."""
    store = _FailingStore()
    server = server_class(store)
    server.start()
    client = CacheClient(*server.address)
    try:
        reply = client._roundtrip(["SET", b"k", b"v"])  # noqa: SLF001
        assert isinstance(reply, WireError)
        assert str(reply) == "ERR WalPoisonedError: segment 7 failed fsync"
        assert store.put_calls == 1
        assert client.ping()  # same connection, still usable
        assert client.reconnects == 0
        assert client.stats()["server.errors"] == "1"
    finally:
        client.close()
        server.stop()


def test_one_handler_per_command():
    """Every row's handler is one function both server classes share, and
    neither class defines a name a handler lookup could be shadowed by."""
    for name, row in COMMANDS.items():
        attribute = row.handler.__name__
        assert getattr(StoreServer, attribute) is row.handler, name
        assert getattr(CacheServer, attribute) is row.handler, name
    for cls in (CacheServer, StoreServer):
        own = [attr for attr in vars(cls) if attr.startswith("_cmd_")]
        handlers = {row.handler.__name__ for row in COMMANDS.values()}
        assert set(own) <= handlers, f"{cls.__name__} defines non-table _cmd_ names"
    assert not [attr for attr in vars(CacheServer) if attr.startswith("_cmd_")]
