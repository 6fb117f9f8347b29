"""Remote-process cache server (the evaluation's Redis stand-in).

A standalone TCP key-value server built from scratch.  There is **one
command core**: :class:`StoreServer` executes the wire commands against any
:class:`~repro.kv.interface.KeyValueStore`, and :class:`CacheServer` is a
``StoreServer`` whose store is a private in-memory keyspace with a bounded
LRU, optional TTLs and optional snapshot persistence -- the feature set
Section III of the paper relies on when it discusses remote-process caches
("via the key-value interface, any data store can serve as a cache").

The command set is data: :data:`COMMANDS` holds one row per wire command
(its handler, its arity, which arguments are routing keys).  Dispatch,
arity errors, cluster routing and the ``docs/protocol.md`` check
(``make check-docs``) all derive from that table.

The server can run three ways:

* in a daemon thread inside the current process
  (:meth:`ServerHandle.start_in_thread`) -- convenient for tests;
* as a separate OS process (:meth:`ServerHandle.spawn_process`) -- a true
  *remote-process* cache, used by the benchmarks so that IPC costs are real;
* from the command line: ``python -m repro.net.server --port 7379``.

The server is itself observable: every dispatched command is counted and
timed into a per-server :class:`~repro.obs.Observability` bundle
(``server.cmd.<name>.calls`` / ``server.cmd.<name>.seconds``), the ``STATS``
command exposes those numbers over the wire, and ``--metrics-port`` serves
the same registry over HTTP in Prometheus text format -- so the remote
cache is no longer a black box (see ``docs/observability.md``).
"""

from __future__ import annotations

import pickle
import select
import socket
import sys
import threading
import time
from collections import OrderedDict
from contextlib import suppress
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

from ..errors import (
    ConfigurationError,
    DataStoreError,
    KeyNotFoundError,
    ProtocolError,
    StoreConnectionError,
)
from ..obs import Observability
from . import protocol
from ..kv.interface import KeyValueStore, content_version, decode_key, encode_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    import argparse
    import subprocess

__all__ = [
    "CacheServer",
    "StoreServer",
    "ServerHandle",
    "COMMANDS",
    "build_server",
    "THREADED_MAX_CLIENTS",
]

#: Default concurrent-connection bound for the threaded engine.  Every
#: connection costs one OS thread (stack reservation, scheduler load), so a
#: thread-per-connection server must cap clients the way Redis's
#: ``maxclients`` does.  The event-loop engine (:mod:`repro.net.aio`) holds
#: a connection for the price of a socket and a read buffer and therefore
#: defaults ~32x higher.
THREADED_MAX_CLIENTS = 128

#: Bytes one ``recv_into`` may fill: each connection thread reuses one such
#: chunk for every read, so a connection holds 16 KiB of read space (what
#: a buffered socket file's read and write buffers held) and a read
#: allocates nothing for the bytes it has not received.
RECV_CHUNK = 16 * 1024


_OK = protocol.encode_simple("OK")
_NIL = protocol.encode_nil()
_NOT_BYTES = protocol.encode_error("ERR stored value is not bytes")


class _Entry:
    """One stored value plus its absolute expiry (``None`` = no TTL)."""

    __slots__ = ("value", "expires_at")

    def __init__(self, value: bytes, expires_at: float | None) -> None:
        self.value = value
        self.expires_at = expires_at

    def expired(self, now: float) -> bool:
        return self.expires_at is not None and now >= self.expires_at


class _CacheKeyspace(KeyValueStore):
    """The cache server's store: a bounded LRU with lazy TTL expiry.

    A plain :class:`~repro.kv.interface.KeyValueStore` plus the three things
    only a cache has -- ``put(..., ttl=)``, :meth:`ttl` and
    :meth:`save`/:meth:`load` -- which is why it is the one store that
    accepts ``SETEX``/``TTL``/``SAVE``.
    """

    name = "cache-keyspace"

    def __init__(
        self, max_entries: int | None = None, snapshot_path: str | Path | None = None
    ) -> None:
        if max_entries is not None and max_entries <= 0:
            raise ConfigurationError("max_entries must be positive")
        self._max_entries = max_entries
        self.snapshot_path = Path(snapshot_path) if snapshot_path else None
        self._data: OrderedDict[str, _Entry] = OrderedDict()
        self._lock = threading.Lock()

    def _live_entry(self, key: str) -> _Entry | None:
        """Return the unexpired entry for *key*, lazily purging an expired one.

        Caller must hold ``self._lock``.
        """
        entry = self._data.get(key)
        if entry is None:
            return None
        if entry.expired(time.monotonic()):
            del self._data[key]
            return None
        return entry

    def get_or_default(self, key: str, default=None):
        with self._lock:
            entry = self._live_entry(key)
            if entry is None:
                return default
            self._data.move_to_end(key)  # a read refreshes LRU recency
            return entry.value

    def get(self, key: str) -> bytes:
        value = self.get_or_default(key)
        if value is None:
            raise KeyNotFoundError(key)
        return value

    def get_with_version(self, key: str) -> tuple[bytes, str]:
        value = self.get(key)
        return value, content_version(value)

    def put(self, key: str, value: bytes, ttl: float | None = None) -> None:
        expires_at = None if ttl is None else time.monotonic() + ttl
        with self._lock:
            self._data[key] = _Entry(value, expires_at)
            self._data.move_to_end(key)
            if self._max_entries is not None:
                while len(self._data) > self._max_entries:
                    self._data.popitem(last=False)  # LRU victim

    def delete(self, key: str) -> bool:
        with self._lock:
            return self._data.pop(key, None) is not None

    def contains(self, key: str) -> bool:
        with self._lock:
            return self._live_entry(key) is not None

    def keys(self) -> Iterator[str]:
        now = time.monotonic()
        with self._lock:
            return iter([k for k, e in self._data.items() if not e.expired(now)])

    def clear(self) -> int:
        with self._lock:
            count = len(self._data)
            self._data.clear()
            return count

    def close(self) -> None:
        pass

    def ttl(self, key: str) -> int:
        """Whole seconds until *key* expires; ``-1`` no TTL, ``-2`` missing."""
        with self._lock:
            entry = self._live_entry(key)
            if entry is None:
                return -2
            if entry.expires_at is None:
                return -1
            return max(0, int(entry.expires_at - time.monotonic()))

    def save(self) -> None:
        """Atomically persist ``{bytes key: (value, remaining_ttl)}``."""
        now = time.monotonic()
        with self._lock:
            # Persist remaining TTL (monotonic clocks don't survive restarts).
            snapshot = {
                encode_key(key): (
                    entry.value,
                    None if entry.expires_at is None else max(0.0, entry.expires_at - now),
                )
                for key, entry in self._data.items()
                if not entry.expired(now)
            }
        tmp = self.snapshot_path.with_suffix(".tmp")
        with open(tmp, "wb") as handle:
            pickle.dump(snapshot, handle, protocol=pickle.HIGHEST_PROTOCOL)
        tmp.replace(self.snapshot_path)

    def load(self) -> None:
        """Warm-load the snapshot file, if one is configured and exists."""
        if self.snapshot_path is None or not self.snapshot_path.exists():
            return
        with open(self.snapshot_path, "rb") as handle:
            snapshot = pickle.load(handle)
        now = time.monotonic()
        with self._lock:
            for key, (value, remaining_ttl) in snapshot.items():
                expires_at = None if remaining_ttl is None else now + remaining_ttl
                self._data[decode_key(key)] = _Entry(value, expires_at)


#: Which arguments of a command are routing keys (a slice of its arguments).
FIRST, ALL, PAIRS = slice(0, 1), slice(None), slice(None, -1, 2)


class _Command(NamedTuple):
    """One row of :data:`COMMANDS`: everything the server knows about a command."""

    name: str
    #: ``handler(server, args, connection) -> encoded_reply``
    handler: Callable
    #: ``(min, max)`` argument count; ``max=None`` is unbounded.
    arity: tuple[int, int | None] = (0, None)
    #: Routing keys among the arguments (:data:`FIRST`/:data:`ALL`/:data:`PAIRS`).
    keys: slice | None = None
    #: Set on the commands only the cache keyspace supports: the error a
    #: server over any other store answers instead.
    needs_cache: str | None = None
    #: The connection is closed once the reply is sent.
    closes: bool = False

    def arity_error(self, count: int) -> str | None:
        low, high = self.arity
        paired = self.keys is PAIRS
        if low <= count and (high is None or count <= high) and not (paired and count % 2):
            return None
        if paired:
            return "expected an even, non-zero number"
        if low == high:
            return f"expected {low}, got {count}"
        return f"expected at least {low}" if high is None else f"expected {low} or {high}"


class StoreServer:
    """Host any :class:`~repro.kv.interface.KeyValueStore` over the wire protocol.

    The paper's MySQL data store is client-server: every operation crosses a
    socket to the database process.  Our sqlite substrate is in-process, so
    benchmarks wrap it in a ``StoreServer`` to restore the client-server
    shape.  This class is also the **command core**: every handler below is
    written once against ``self._store`` and shared, unmodified, by
    :class:`CacheServer` and both serving engines.

    Values must be bytes on the wire (the remote client serializes before
    sending).  ``SETEX``/``TTL``/``SAVE`` need the cache keyspace
    (:class:`CacheServer`); over any other store they are refused -- data
    stores own their durability.  A store failure (any
    :class:`~repro.errors.DataStoreError`) is answered
    ``-ERR <TypeName>: <message>`` and the connection stays open.
    """

    #: Engine label reported by ``STATS`` (``server.engine``).
    engine = "threaded"

    def __init__(
        self,
        store: KeyValueStore,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_clients: int | None = THREADED_MAX_CLIENTS,
        obs: Observability | None = None,
    ) -> None:
        """Create a server (not yet listening; call :meth:`start`).

        :param port: TCP port; 0 picks a free port (see :attr:`address`).
        :param max_clients: concurrent-connection bound; connections beyond
            it are refused with ``-ERR max number of clients reached`` and
            closed (``None`` = unbounded).  Defaults to
            :data:`THREADED_MAX_CLIENTS` -- each threaded connection costs
            an OS thread.
        :param obs: observability bundle for per-command counters and
            latency histograms.  Unlike client-side constructors the server
            defaults to a *fresh enabled* bundle (it is the thing being
            observed; ``STATS`` must always have numbers to report) -- pass
            a shared bundle to merge its registry with other components.
        """
        if max_clients is not None and max_clients <= 0:
            raise ConfigurationError("max_clients must be positive")
        self.obs = obs if obs is not None else Observability()
        self.host = host
        self.port = port
        self.max_clients = max_clients
        #: Whatever carries this core's connections and therefore answers
        #: ``engine`` / ``max_clients`` / ``connection_count()`` for ``STATS``:
        #: the server itself, or the async engine wrapping it.
        self.carrier = self
        self._store = store
        self._is_cache = isinstance(store, _CacheKeyspace)
        self._cmd_handles: dict[str, tuple] = {}
        self._started_at: float | None = None
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        # Pub/sub: channel -> set of connections; threaded connections carry
        # a write lock because publishers push frames concurrently with the
        # connection's own reply stream.
        self._subscribers: dict[bytes, set] = {}
        self._subscribers_lock = threading.Lock()
        #: Set once the server is shutting down (``SHUTDOWN`` or :meth:`stop`).
        self.stopping = threading.Event()
        # Cluster routing (see repro.cluster); ``None`` = standalone server.
        self._router: _ClusterRouter | None = None
        self.address: tuple[str, int] | None = None
        #: total commands served (diagnostics)
        self.commands_served = 0
        #: connections refused because ``max_clients`` was reached
        self.rejected_clients = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def prepare(self) -> None:
        """Shared start-up work (both engines): clock + snapshot warm load."""
        self._started_at = time.monotonic()
        if self._is_cache:
            self._store.load()

    def start(self) -> tuple[str, int]:
        """Bind, warm-load any snapshot, and begin accepting connections."""
        self.prepare()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(64)
        self._listener = listener
        self.address = listener.getsockname()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="cache-server-accept", daemon=True
        )
        self._accept_thread.start()
        return self.address

    def stop(self) -> None:
        """Stop accepting, close the listener and every live connection.
        Idempotent."""
        self.stopping.set()
        self._close_listener()
        with self._connections_lock:
            live = list(self._connections)
            self._connections.clear()
        for conn in live:
            with suppress(OSError):
                conn.shutdown(socket.SHUT_RDWR)
            with suppress(OSError):
                conn.close()

    def _close_listener(self) -> None:
        listener, self._listener = self._listener, None
        if listener is not None:
            with suppress(OSError):
                listener.close()

    def serve_forever(self) -> None:
        """Block until the server is shut down (CLI entry point)."""
        self.stopping.wait()

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self.stopping.is_set():
            try:
                conn, _peer = self._listener.accept()
            except OSError:
                break  # listener closed
            if self.max_clients is not None and self.connection_count() >= self.max_clients:
                with suppress(OSError):
                    conn.sendall(self.refuse())
                with suppress(OSError):
                    conn.close()
                continue
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            )
            thread.start()

    def connection_count(self) -> int:
        with self._connections_lock:
            return len(self._connections)

    # ------------------------------------------------------------------
    # What a serving engine calls as connections come and go
    # ------------------------------------------------------------------
    def refuse(self) -> bytes:
        """Count a connection refused at ``max_clients``; returns the error
        frame to send before closing it."""
        self.rejected_clients += 1
        if self.obs.enabled:
            self.obs.inc("server.rejected_clients")
        return protocol.encode_error("ERR max number of clients reached")

    def connected(self) -> None:
        if self.obs.enabled:
            self.obs.inc("server.connections_total")
            self.obs.gauge("server.connections").inc()

    def disconnected(self, connection) -> None:
        """Forget *connection*: drop its subscriptions, count it gone."""
        self._drop_subscriber(connection)
        if self.obs.enabled:
            self.obs.gauge("server.connections").dec()

    def _drop_subscriber(self, connection) -> None:
        with self._subscribers_lock:
            for channel in list(self._subscribers):
                self._subscribers[channel].discard(connection)
                if not self._subscribers[channel]:
                    del self._subscribers[channel]

    # ------------------------------------------------------------------
    # Per-connection protocol loop
    # ------------------------------------------------------------------
    def _serve_connection(self, conn: socket.socket) -> None:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with self._connections_lock:
            self._connections.add(conn)
        self.connected()
        context = _ConnectionContext(conn)
        parser = protocol.CommandParser()
        buffer = bytearray()
        chunk = memoryview(bytearray(RECV_CHUNK))
        keep_open = True
        try:
            while keep_open and not self.stopping.is_set():
                received = conn.recv_into(chunk)
                if not received:
                    return  # clean disconnect
                buffer += chunk[:received]
                replies, keep_open = self.serve_burst(parser, buffer, context)
                if replies:
                    context.send(b"".join(replies))
        except OSError:
            return
        finally:
            self.disconnected(context)
            with self._connections_lock:
                self._connections.discard(conn)
            with suppress(OSError):
                conn.close()

    def serve_burst(
        self, parser: protocol.CommandParser, buffer: bytearray, connection
    ) -> tuple[list[bytes], bool]:
        """Dispatch every complete request at the front of *buffer* -- the
        request loop of both engines, run once per socket read.

        *parser* is the connection's own, so a request torn across reads
        resumes where it stopped; the consumed bytes are deleted from
        *buffer*.  Returns the replies in request order, for the engine to
        send as one write, and whether the connection stays open: a
        closing command ends the burst, and malformed framing is answered
        ``-ERR protocol error`` once before the peer is dropped.
        """
        replies: list[bytes] = []
        position = 0
        try:
            while True:
                command, position = parser.feed(buffer, position)
                if command is None:
                    break
                reply, keep_open = self.dispatch(command, connection)
                replies.append(reply)
                if not keep_open:
                    return replies, False
        except ProtocolError:
            replies.append(protocol.encode_error("ERR protocol error"))
            return replies, False
        # The parser keeps the arguments it has copied out of an
        # incomplete tail, so the bytes before `position` can go.
        del buffer[:position]
        return replies, True

    # ------------------------------------------------------------------
    # Command dispatch
    # ------------------------------------------------------------------
    def dispatch(self, command: list[bytes], connection) -> tuple[bytes, bool]:
        """Execute one command; returns ``(encoded_reply, keep_connection)``.

        *connection* is the requesting connection's write side (``None`` for
        internal calls); ``CEPOCH`` and pub/sub record state on it.  When
        the server is part of a cluster (:meth:`install_topology`) the
        command goes through the cluster router first; standalone servers
        skip all of it.
        """
        if self._router is not None:
            return self._router.dispatch(command, connection)
        return self.dispatch_local(command, connection)

    def dispatch_local(self, command: list[bytes], connection) -> tuple[bytes, bool]:
        """Execute one command against this server's own store -- the one
        place a command runs: table lookup, capability, arity, handler, and
        a failing store turned into an error reply instead of a dead
        connection.

        Every dispatch is counted and timed into the server's registry
        (``server.cmd.<name>.calls`` / ``.seconds``; error replies also
        count ``server.errors``), which is what ``STATS`` and the HTTP
        exporter report.
        """
        self.commands_served += 1
        observed = self.obs.enabled
        row = COMMANDS.get(command[0].upper())
        if row is None:
            if observed:
                self.obs.inc("server.cmd.unknown.calls")
                self.obs.inc("server.errors")
            name = command[0].upper().decode("ascii", errors="replace")
            return protocol.encode_error(f"ERR unknown command '{name}'"), True
        if observed:
            handles = self._cmd_handles.get(row.name)
            if handles is None:  # racing threads get the same registry objects
                prefix = f"server.cmd.{row.name.lower()}"
                handles = self._cmd_handles[row.name] = (
                    self.obs.counter(prefix + ".calls"),
                    self.obs.histogram(prefix + ".seconds"),
                )
            handles[0].inc()
            start = time.perf_counter()
        args = command[1:]
        keep_open = True
        if row.needs_cache is not None and not self._is_cache:
            reply = protocol.encode_error(row.needs_cache)
        elif (problem := row.arity_error(len(args))) is not None:
            reply = protocol.encode_error(
                f"ERR wrong number of arguments for '{row.name}': {problem}"
            )
        else:
            try:
                reply = row.handler(self, args, connection)
                keep_open = not row.closes
            except DataStoreError as exc:
                reply = protocol.encode_error(f"ERR {type(exc).__name__}: {exc}")
        if observed:
            handles[1].observe(time.perf_counter() - start)
            if reply.startswith(b"-"):
                self.obs.inc("server.errors")
        return reply, keep_open

    # ------------------------------------------------------------------
    # Cluster serving (see repro.cluster and docs/cluster.md)
    # ------------------------------------------------------------------
    def install_topology(self, topology, self_name: str) -> None:
        """Join a cluster or adopt a newer topology version.

        *topology* is duck-typed (``repro.cluster.ClusterTopology``: it must
        offer ``epoch``, ``members``, ``owner(key)``, ``address(name)`` and
        ``encode()``) so this module never imports :mod:`repro.cluster`.
        Epochs are monotonic: installing an older version than the current
        one is a coordination bug and is refused.
        """
        if self._router is None:
            self._router = _ClusterRouter(self)
        self._router.install(topology, self_name)

    @property
    def cluster_topology(self):
        return None if self._router is None else self._router.topology

    # ------------------------------------------------------------------
    # Handlers: (args, connection) -> encoded reply.  Arity is already
    # checked against the command's COMMANDS row.
    # ------------------------------------------------------------------
    def _cmd_ping(self, args, connection):
        if args:
            return protocol.encode_bulk(args[0])
        return protocol.encode_simple("PONG")

    def _cmd_get(self, args, connection):
        value = self._store.get_or_default(decode_key(args[0]))
        if value is None:
            return _NIL
        if not isinstance(value, (bytes, bytearray)):
            return _NOT_BYTES
        return protocol.encode_bulk(bytes(value))

    def _cmd_set(self, args, connection):
        self._store.put(decode_key(args[0]), args[1])
        return _OK

    def _cmd_setex(self, args, connection):
        try:
            ttl = float(args[1])
        except ValueError:
            ttl = 0.0
        if ttl <= 0:
            return protocol.encode_error("ERR invalid TTL")
        self._store.put(decode_key(args[0]), args[2], ttl=ttl)
        return _OK

    def _cmd_del(self, args, connection):
        removed = self._store.delete_many([decode_key(key) for key in args])
        return protocol.encode_integer(removed)

    def _cmd_mget(self, args, connection):
        """Fetch many keys in one round trip; absent keys come back nil."""
        keys = [decode_key(key) for key in args]
        found = self._store.get_many(keys)
        frames = []
        for key in keys:
            value = found.get(key)
            if isinstance(value, (bytes, bytearray)):
                frames.append(protocol.encode_bulk(bytes(value)))
            else:
                frames.append(_NIL)
        return protocol.encode_array(frames)

    def _cmd_mset(self, args, connection):
        """Store many (key, value) pairs in one round trip."""
        self._store.put_many(
            {decode_key(args[index]): args[index + 1] for index in range(0, len(args), 2)}
        )
        return _OK

    def _cmd_exists(self, args, connection):
        present = self._store.contains(decode_key(args[0]))
        return protocol.encode_integer(1 if present else 0)

    def _cmd_keys(self, args, connection):
        frames = [
            protocol.encode_bulk(encode_key(key))
            for key in self._store.keys()
        ]
        return protocol.encode_array(frames)

    def _cmd_dbsize(self, args, connection):
        return protocol.encode_integer(self._store.size())

    def _cmd_flushall(self, args, connection):
        self._store.clear()
        return _OK

    def _cmd_ttl(self, args, connection):
        return protocol.encode_integer(self._store.ttl(decode_key(args[0])))

    def _cmd_getver(self, args, connection):
        """Version token for a key (content hash) -- used for revalidation."""
        value = self._store.get_or_default(decode_key(args[0]))
        if value is None:
            return _NIL
        if not isinstance(value, (bytes, bytearray)):
            return _NOT_BYTES
        return protocol.encode_bulk(content_version(value).encode("ascii"))

    def _cmd_save(self, args, connection):
        if self._store.snapshot_path is None:
            return protocol.encode_error("ERR no snapshot path configured")
        self._store.save()
        return _OK

    def _cmd_topology(self, args, connection):
        """The cluster's shard map + epoch as a JSON bulk string."""
        topology = self.cluster_topology
        if topology is None:
            return protocol.encode_error("ERR this server is not part of a cluster")
        return protocol.encode_bulk(topology.encode())

    def _cmd_cepoch(self, args, connection):
        """Declare the topology epoch this connection routes by: CEPOCH <epoch>."""
        try:
            epoch = int(args[0])
        except ValueError:
            return protocol.encode_error("ERR invalid CEPOCH arguments")
        if epoch < 0:
            return protocol.encode_error("ERR CEPOCH wants epoch >= 0")
        if connection is not None:
            connection.cluster_epoch = epoch
        return _OK

    def _cmd_stats(self, args, connection):
        """Live server statistics as a flat array of key/value bulk strings."""
        frames: list[bytes] = []
        for key, value in self.stats_pairs():
            frames.append(protocol.encode_bulk(key.encode("ascii")))
            frames.append(protocol.encode_bulk(value.encode("ascii")))
        return protocol.encode_array(frames)

    def _cmd_subscribe(self, args, connection):
        with self._subscribers_lock:
            self._subscribers.setdefault(args[0], set()).add(connection)
            count = sum(1 for members in self._subscribers.values() if connection in members)
        return protocol.encode_array(
            [
                protocol.encode_bulk(b"subscribe"),
                protocol.encode_bulk(args[0]),
                protocol.encode_integer(count),
            ]
        )

    def _cmd_unsubscribe(self, args, connection):
        with self._subscribers_lock:
            members = self._subscribers.get(args[0])
            if members is not None:
                members.discard(connection)
                if not members:
                    del self._subscribers[args[0]]
        return _OK

    def _cmd_publish(self, args, connection):
        channel, payload = args
        message = protocol.encode_array(
            [
                protocol.encode_bulk(b"message"),
                protocol.encode_bulk(channel),
                protocol.encode_bulk(payload),
            ]
        )
        with self._subscribers_lock:
            targets = list(self._subscribers.get(channel, ()))
        delivered = 0
        for target in targets:
            try:
                target.send(message)
                delivered += 1
            except OSError:
                self._drop_subscriber(target)
        return protocol.encode_integer(delivered)

    def _cmd_quit(self, args, connection):
        return _OK

    def _cmd_shutdown(self, args, connection):
        self.stopping.set()
        self._close_listener()
        return _OK

    # ------------------------------------------------------------------
    # Server-side observability (the STATS wire command)
    # ------------------------------------------------------------------
    def stats_pairs(self) -> list[tuple[str, str]]:
        """The ``STATS`` payload as (key, value) string pairs.

        Always present: ``server.uptime_seconds``, ``server.commands_served``,
        ``server.connections``, ``server.keys``, ``server.engine``
        (``threaded`` or ``async``), ``server.max_clients`` (``0`` =
        unbounded), and ``server.rejected_clients``.  With an enabled
        observability bundle (the default), every dispatched command adds
        ``cmd.<name>.calls`` plus latency figures (``cmd.<name>.mean_ms`` /
        ``cmd.<name>.p99_ms``), and the total error-reply count
        ``server.errors``.
        """
        uptime = 0.0 if self._started_at is None else time.monotonic() - self._started_at
        carrier = self.carrier
        pairs: list[tuple[str, str]] = [
            ("server.uptime_seconds", f"{uptime:.3f}"),
            ("server.commands_served", str(self.commands_served)),
            ("server.connections", str(carrier.connection_count())),
            ("server.keys", str(self._store.size())),
            ("server.engine", carrier.engine),
            ("server.max_clients", str(carrier.max_clients or 0)),
            ("server.rejected_clients", str(self.rejected_clients)),
        ]
        if self._router is not None:
            topology = self._router.topology
            pairs.append(("cluster.epoch", str(topology.epoch)))
            pairs.append(("cluster.self", self._router.self_name or ""))
            pairs.append(("cluster.shards", str(len(topology.members))))
        if self.obs.enabled:
            snapshot = self.obs.registry.snapshot()
            pairs.append(
                ("server.errors", str(snapshot["counters"].get("server.errors", 0)))
            )
            for name, value in snapshot["counters"].items():
                if not (name.startswith("server.cmd.") and name.endswith(".calls")):
                    continue
                command = name[len("server.cmd."):-len(".calls")]
                pairs.append((f"cmd.{command}.calls", str(value)))
                histogram = self.obs.registry.histogram(f"server.cmd.{command}.seconds")
                if histogram.count:
                    pairs.append((f"cmd.{command}.mean_ms", f"{histogram.mean * 1e3:.3f}"))
                    pairs.append(
                        (f"cmd.{command}.p99_ms", f"{histogram.percentile(0.99) * 1e3:.3f}")
                    )
        return pairs


class CacheServer(StoreServer):
    """Threaded TCP cache server with LRU eviction and snapshotting: a
    :class:`StoreServer` over the in-memory cache keyspace."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_entries: int | None = None,
        snapshot_path: str | Path | None = None,
        max_clients: int | None = THREADED_MAX_CLIENTS,
        obs: Observability | None = None,
    ) -> None:
        """See :class:`StoreServer` for *port*, *max_clients* and *obs*.

        :param max_entries: LRU-evict beyond this many keys (``None`` =
            unbounded, like a default Redis instance).
        :param snapshot_path: if set, ``SAVE`` persists the keyspace here
            and :meth:`start` warm-loads from it when it exists.
        """
        super().__init__(
            _CacheKeyspace(max_entries, snapshot_path),
            host,
            port,
            max_clients=max_clients,
            obs=obs,
        )


_NO_TTL = "ERR TTLs are not supported by a store server"
_NO_SAVE = "ERR the hosted store owns its durability"

#: The command set, as data: the only registry of what a command is.
#: A handler plus its row is all a new command needs to be dispatched,
#: arity-checked, cluster-routed and required in ``docs/protocol.md``.
COMMANDS: dict[bytes, _Command] = {
    row.name.encode("ascii"): row
    for row in (
        _Command("PING", StoreServer._cmd_ping),
        _Command("GET", StoreServer._cmd_get, (1, 1), FIRST),
        _Command("SET", StoreServer._cmd_set, (2, 2), FIRST),
        _Command("SETEX", StoreServer._cmd_setex, (3, 3), FIRST, needs_cache=_NO_TTL),
        _Command("DEL", StoreServer._cmd_del, (1, None), ALL),
        _Command("MGET", StoreServer._cmd_mget, (1, None), ALL),
        _Command("MSET", StoreServer._cmd_mset, (2, None), PAIRS),
        _Command("EXISTS", StoreServer._cmd_exists, (1, 1), FIRST),
        _Command("KEYS", StoreServer._cmd_keys),
        _Command("DBSIZE", StoreServer._cmd_dbsize),
        _Command("FLUSHALL", StoreServer._cmd_flushall),
        _Command("TTL", StoreServer._cmd_ttl, (1, 1), FIRST, needs_cache=_NO_TTL),
        _Command("GETVER", StoreServer._cmd_getver, (1, 1), FIRST),
        _Command("SAVE", StoreServer._cmd_save, needs_cache=_NO_SAVE),
        _Command("STATS", StoreServer._cmd_stats),
        _Command("TOPOLOGY", StoreServer._cmd_topology),
        _Command("CEPOCH", StoreServer._cmd_cepoch, (1, 1)),
        _Command("SUBSCRIBE", StoreServer._cmd_subscribe, (1, 1)),
        _Command("UNSUBSCRIBE", StoreServer._cmd_unsubscribe, (1, 1)),
        _Command("PUBLISH", StoreServer._cmd_publish, (2, 2)),
        _Command("QUIT", StoreServer._cmd_quit, closes=True),
        _Command("SHUTDOWN", StoreServer._cmd_shutdown, closes=True),
    )
}


class _ClusterRouter:
    """Cluster routing, composed around one server's local dispatch.

    Created by :meth:`StoreServer.install_topology`, so a standalone server
    pays no per-command topology test.  A keyed command (a row with
    ``keys``) naming any key this shard does not own is answered with a
    ``-MOVED`` redirect and runs nowhere: the client routes, a member never
    forwards.  Replies to connections that declared a stale epoch
    (``CEPOCH``) get the current epoch piggybacked as a ``^<epoch>`` header.
    """

    def __init__(self, server: StoreServer) -> None:
        self._server = server
        # A duck-typed topology object (epoch / owner(key) / address(name) /
        # encode()) plus this server's shard name.
        self.topology = None
        self.self_name: str | None = None

    def install(self, topology, self_name: str) -> None:
        current = self.topology
        if current is not None and topology.epoch < current.epoch:
            raise ConfigurationError(
                f"refusing to install topology epoch {topology.epoch} over "
                f"newer epoch {current.epoch}"
            )
        self.topology = topology
        self.self_name = self_name
        obs = self._server.obs
        if obs.enabled:
            obs.gauge("cluster.epoch").set(topology.epoch)
            obs.inc("cluster.topology_installs")
            obs.emit(
                "topology_changed",
                epoch=topology.epoch,
                shard=self_name,
                members=list(topology.members),
            )

    def dispatch(self, command: list[bytes], connection) -> tuple[bytes, bool]:
        topology = self.topology
        row = COMMANDS.get(command[0].upper())
        moved = None
        if row is not None and row.keys is not None:
            moved = self._moved(command[1:][row.keys], topology)
        if moved is not None:
            self._server.commands_served += 1
            reply, keep_open = moved, True
        else:
            reply, keep_open = self._server.dispatch_local(command, connection)
        if (
            connection is not None
            and connection.cluster_epoch is not None
            and connection.cluster_epoch != topology.epoch
        ):
            reply = protocol.encode_epoch(topology.epoch) + reply
        return reply, keep_open

    def _moved(self, keys: list[bytes], topology) -> bytes | None:
        """The ``-MOVED`` redirect to the first key this shard does not own,
        or ``None`` when it owns them all (an arity error included: no keys,
        so the local handler reports it)."""
        for key in keys:
            owner = topology.owner(decode_key(key))
            if owner != self.self_name:
                host, port = topology.address(owner)
                if self._server.obs.enabled:
                    self._server.obs.inc("cluster.moved_replies")
                return protocol.encode_error(f"MOVED {topology.epoch} {owner} {host}:{port}")
        return None


class _ConnectionContext:
    """A connection's write side, guarded against concurrent pushers: the
    connection's own reply bursts and pub/sub frames from publishers.

    Also carries the topology epoch the peer declared it routes by (set by
    the ``CEPOCH`` command; ``None`` until then -- see ``docs/cluster.md``).
    """

    __slots__ = ("_conn", "_lock", "cluster_epoch")

    def __init__(self, conn: socket.socket) -> None:
        self._conn = conn
        self._lock = threading.Lock()
        self.cluster_epoch: int | None = None

    def send(self, frame: bytes) -> None:
        with self._lock:
            self._conn.sendall(frame)


def build_server(
    engine: str,
    store: KeyValueStore | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    max_entries: int | None = None,
    snapshot_path: str | Path | None = None,
    max_clients: int | None = None,
    obs: Observability | None = None,
):
    """The one place an (engine, backend) pair becomes a server object.

    :param engine: ``"threaded"`` (one thread per connection) or ``"async"``
        (one event loop multiplexing every connection --
        :mod:`repro.net.aio`).  Both speak the same wire protocol, so any
        client works against either.
    :param store: host this store; ``None`` = the in-memory cache keyspace
        (which is what *max_entries* / *snapshot_path* configure).
    :param max_clients: concurrent-connection bound; ``None`` keeps the
        engine's default (:data:`THREADED_MAX_CLIENTS` /
        :data:`repro.net.aio.ASYNC_MAX_CLIENTS`).
    """
    if engine == "async":
        from . import aio

        cache_class, store_class = aio.AsyncCacheServer, aio.AsyncStoreServer
        default_clients = aio.ASYNC_MAX_CLIENTS
    elif engine == "threaded":
        cache_class, store_class = CacheServer, StoreServer
        default_clients = THREADED_MAX_CLIENTS
    else:
        raise ConfigurationError(f"unknown server engine {engine!r}")
    if max_clients is None:
        max_clients = default_clients
    if store is not None:
        return store_class(store, host, port, max_clients=max_clients, obs=obs)
    return cache_class(
        host,
        port,
        max_entries=max_entries,
        snapshot_path=snapshot_path,
        max_clients=max_clients,
        obs=obs,
    )


class ServerHandle:
    """Manages a running cache server (thread or child process) for clients."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        server: "CacheServer | object | None" = None,
        process: subprocess.Popen[bytes] | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self._server = server
        self._process = process

    # ------------------------------------------------------------------
    @classmethod
    def start_in_thread(
        cls,
        *,
        max_entries: int | None = None,
        snapshot_path: str | Path | None = None,
        max_clients: int | None = None,
        engine: str = "threaded",
    ) -> "ServerHandle":
        """Run a cache server on a daemon thread in this process (tests);
        the parameters are :func:`build_server`'s."""
        server = build_server(
            engine,
            max_entries=max_entries,
            snapshot_path=snapshot_path,
            max_clients=max_clients,
        )
        host, port = server.start()
        return cls(host, port, server=server)

    @classmethod
    def spawn_process(
        cls,
        *,
        port: int = 0,
        max_entries: int | None = None,
        snapshot_path: str | Path | None = None,
        backend: str = "cache",
        database: str | None = None,
        engine: str = "threaded",
        startup_timeout: float = 10.0,
    ) -> "ServerHandle":
        """Run a server in a separate OS process (true remote-process cache).

        The child prints ``LISTENING <host> <port>`` on stdout once bound;
        we wait for that line before returning.

        :param backend: ``"cache"`` (default, in-memory cache keyspace),
            ``"sql"`` (a :class:`StoreServer` over a sqlite store at
            *database* -- the client-server SQL configuration used by the
            benchmarks to mimic MySQL), or ``"lsm"`` (a :class:`StoreServer`
            over an :class:`~repro.lsm.LSMStore` rooted at *database*).
        :param engine: ``"threaded"`` or ``"async"`` (see
            :func:`build_server`).

        A child that neither announces itself nor exits within
        *startup_timeout* seconds (a long WAL replay, say) is killed and
        reaped, and :class:`~repro.errors.StoreConnectionError` is raised.
        """
        import subprocess

        cmd = [sys.executable, "-m", "repro.net.server", "--port", str(port)]
        if max_entries is not None:
            cmd += ["--max-entries", str(max_entries)]
        if snapshot_path is not None:
            cmd += ["--snapshot", str(snapshot_path)]
        if engine != "threaded":
            cmd += ["--engine", engine]
        if backend != "cache":
            cmd += ["--backend", backend]
            if database is not None:
                cmd += ["--database", database]
        # Unbuffered, so a readable pipe (select) always means an unread line.
        process = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, bufsize=0
        )
        assert process.stdout is not None
        deadline = time.monotonic() + startup_timeout
        line = b""
        while not line.startswith(b"LISTENING"):
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([process.stdout], [], [], remaining)[0]:
                _reap(process)
                raise StoreConnectionError(
                    f"cache server process did not report readiness within {startup_timeout}s"
                )
            line = process.stdout.readline()
            if not line:
                _reap(process)
                raise StoreConnectionError("cache server process exited during startup")
        _token, host, port_str = line.decode("ascii").split()
        return cls(host, int(port_str), process=process)

    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Shut the server down.  Idempotent."""
        if self._server is not None:
            self._server.stop()
            self._server = None
        if self._process is not None:
            _reap(self._process, grace=5)
            self._process = None

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def _reap(process: subprocess.Popen[bytes], grace: float = 0.0) -> None:
    """End a child server: SIGTERM and up to *grace* seconds to exit, then
    SIGKILL; reap it and close its stdout pipe."""
    import subprocess

    if grace > 0:
        process.terminate()
        with suppress(subprocess.TimeoutExpired):
            process.wait(timeout=grace)
    process.kill()  # a no-op once the child has been reaped
    process.wait(timeout=5)
    if process.stdout is not None:
        process.stdout.close()


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    """The serve flags, declared once for ``python -m repro.net.server`` and
    ``python -m repro serve``."""
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="0 = pick a free port")
    parser.add_argument("--max-entries", type=int, default=None)
    parser.add_argument("--snapshot", default=None, help="snapshot file for SAVE/warm start")
    parser.add_argument(
        "--backend", choices=("cache", "sql", "lsm"), default="cache",
        help="'cache' = in-memory cache keyspace; 'sql' = serve a sqlite "
             "store; 'lsm' = serve an LSM store directory",
    )
    parser.add_argument(
        "--database", default=":memory:",
        help="sqlite path (--backend sql) / data directory (--backend lsm)",
    )
    parser.add_argument(
        "--engine", choices=("threaded", "async"), default="threaded",
        help="'threaded' = one thread per connection; 'async' = one event "
             "loop multiplexing all connections (see docs/serving.md)",
    )
    parser.add_argument(
        "--max-clients", type=int, default=None,
        help="concurrent-connection bound (default: per-engine)",
    )
    parser.add_argument(
        "--metrics-port", type=int, default=None,
        help="also serve /metrics (Prometheus text) over HTTP on this port (0 = free port)",
    )


def serve(options: argparse.Namespace) -> None:
    """Run the server *options* (:func:`add_serve_arguments`) describe, in
    the foreground, until it is shut down."""
    store = None
    if options.backend == "sql":
        from ..kv.sqlstore import SQLStore

        store = SQLStore(options.database)
    elif options.backend == "lsm":
        from ..lsm.store import LSMStore

        store = LSMStore(options.database)
    server = build_server(
        options.engine,
        store,
        options.host,
        options.port,
        max_entries=options.max_entries,
        snapshot_path=options.snapshot,
        max_clients=options.max_clients or None,
    )
    host, port = server.start()
    print(f"LISTENING {host} {port}", flush=True)
    exporter = None
    if options.metrics_port is not None:
        from ..obs.export import start_http_exporter

        exporter = start_http_exporter(server.obs, host=options.host, port=options.metrics_port)
        print(f"METRICS {exporter.host} {exporter.port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        server.stop()
    finally:
        if exporter is not None:
            exporter.stop()


def main(argv: list[str] | None = None) -> None:
    """CLI entry point: run a cache server in the foreground."""
    import argparse

    parser = argparse.ArgumentParser(description="repro remote-process cache server")
    add_serve_arguments(parser)
    serve(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    main()
