"""Reactor serving engine for the cache/store wire protocol.

The threaded server (:mod:`repro.net.server`) spends one OS thread per
connection, which caps concurrent clients at the thread budget.  This
module serves every connection from one **reactor**, a
``selectors.DefaultSelector`` (epoll on Linux) on one daemon thread --
Redis's shape, with no event-loop framework under it.  A connection
costs a socket and its buffers, not a thread, and whatever burst of
pipelined requests one read returns is answered with one ``send``.

Design notes (the long-form story is ``docs/serving.md``):

* **Same protocol, same commands.**  The engine owns a
  :class:`~repro.net.server.StoreServer` (or its
  :class:`~repro.net.server.CacheServer` subclass) as its *command core*
  and hands every socket read to ``core.serve_burst`` -- the threaded
  engine's request loop too -- so parsing, command semantics, STATS,
  pub/sub and per-command observability are byte-identical across
  engines.  The engine touches the core only through its public names
  (``docs/serving.md`` lists them).
* **Sync facade.**  :meth:`AsyncServerEngine.start` / :meth:`~AsyncServerEngine.stop`
  look exactly like the threaded server's, so ``ServerHandle``, the CLI
  and the tests drive either engine interchangeably.
* **Ordering.**  Commands execute on the reactor thread in arrival order
  per connection; replies never interleave within a connection.  The
  price is that a slow store operation stalls every connection -- the
  engines trade per-connection parallelism for connection scalability.
* **Backpressure.**  Replies a peer has not taken stay in its unsent
  buffer with ``EVENT_WRITE`` armed; while that buffer exceeds
  :data:`WRITE_HIGH_WATER` the reactor stops reading the peer's requests,
  so a slow reader stalls only itself and holds at most the mark plus
  one burst.  A closing command (``QUIT``, a protocol error) or the
  peer's EOF ends the request stream; the socket closes once its replies
  are flushed.

Metrics (on the core's bundle, beside the shared ``server.*`` family):
``net.aio.connections`` (gauge), ``net.aio.pipelined`` (requests served
from an already-buffered batch beyond the first), ``net.aio.batch``
(histogram of requests per socket read), and ``net.aio.rejected``
(connections refused at ``max_clients``).  Events: ``aio_server_started``
/ ``aio_server_stopped``.
"""

from __future__ import annotations

import selectors
import socket
import sys
import threading
from contextlib import suppress
from pathlib import Path
from typing import TYPE_CHECKING

from ..errors import ConfigurationError
from ..obs import Observability
from . import protocol
from .server import CacheServer, StoreServer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..kv.interface import KeyValueStore

__all__ = [
    "ASYNC_MAX_CLIENTS",
    "AsyncServerEngine",
    "AsyncCacheServer",
    "AsyncStoreServer",
    "probe_fd_budget",
]

#: File descriptors held back from the connection budget: the listener,
#: snapshot/store files, metrics exporter sockets, stdio, and whatever the
#: embedding process needs.
FD_HEADROOM = 64
#: Floor for the probed bound -- never go below the threaded engine's reach.
_FD_BUDGET_FLOOR = 128
#: Ceiling for the probed bound -- beyond this, accept-queue and memory
#: limits dominate before fd count does.
_FD_BUDGET_CEILING = 1 << 20
#: Fallback when the platform offers no RLIMIT_NOFILE (the old hardcoded bound).
_FD_BUDGET_DEFAULT = 4096


def probe_fd_budget(headroom: int = FD_HEADROOM) -> int:
    """Concurrent-connection bound derived from the process fd limit.

    An async connection costs one file descriptor, so the honest bound is
    ``RLIMIT_NOFILE`` minus a headroom for everything else the process has
    open -- not a hardcoded constant.  Clamped to
    [``_FD_BUDGET_FLOOR``, ``_FD_BUDGET_CEILING``]; platforms without the
    ``resource`` module (or with an unlimited soft limit beyond the
    ceiling) fall back to sensible constants.
    """
    try:
        import resource

        soft, _hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    except (ImportError, OSError, ValueError):  # pragma: no cover - platform
        return _FD_BUDGET_DEFAULT
    if soft == getattr(resource, "RLIM_INFINITY", -1) or soft < 0:
        return _FD_BUDGET_CEILING
    return max(_FD_BUDGET_FLOOR, min(soft - headroom, _FD_BUDGET_CEILING))


#: Default concurrent-connection bound for the reactor engine.  A
#: connection here is a file descriptor and buffers, not a thread, so the
#: bound is probed from the process fd budget (:func:`probe_fd_budget`).
ASYNC_MAX_CLIENTS = probe_fd_budget()

#: Bytes pulled per socket read; one read may carry many pipelined requests.
READ_CHUNK = 64 * 1024

#: Unsent reply bytes above which the reactor stops reading from a peer
#: (the transport high-water mark a stream writer's ``drain()`` waits on).
WRITE_HIGH_WATER = 64 * 1024


class _Connection:
    """One accepted socket and what the reactor keeps for it -- the
    ``connection`` the command core sees, like the threaded
    ``_ConnectionContext``: pub/sub fan-out calls :meth:`send`, ``CEPOCH``
    sets :attr:`cluster_epoch`.  Only the reactor thread touches it (fan-out
    runs inside a dispatch), so it takes no lock.
    """

    __slots__ = ("engine", "sock", "parser", "buffer", "unsent", "keep_open", "events",
                 "cluster_epoch")

    def __init__(self, engine: AsyncServerEngine, sock: socket.socket) -> None:
        self.engine = engine
        self.sock: socket.socket | None = sock  # None once closed
        self.parser = protocol.CommandParser()
        self.buffer = bytearray()
        self.unsent = bytearray()
        self.keep_open = True  # False: close once ``unsent`` is flushed
        self.events = selectors.EVENT_READ
        self.cluster_epoch: int | None = None

    def send(self, frame: bytes) -> None:
        if self.sock is None:
            raise OSError("connection is closed")
        self.engine._write(self, frame)


class AsyncServerEngine:
    """Run a threaded-server command core on a ``selectors`` reactor.

    Generic over the core: pass any constructed (but not started)
    :class:`~repro.net.server.StoreServer` (or subclass) instance.  The
    convenience classes :class:`AsyncCacheServer` and
    :class:`AsyncStoreServer` build the usual cores for you.

    Lifecycle mirrors the threaded server: :meth:`start` binds and returns
    ``(host, port)``, :meth:`stop` tears everything down (idempotent; the
    reactor thread is joined and the listener, every live connection and
    the selector are closed, so the port is immediately reusable),
    :meth:`serve_forever` blocks until shutdown.  ``STATS``, :attr:`obs`,
    and :meth:`stats_pairs` are served by the core and report
    ``server.engine = async``.
    """

    engine = "async"

    def __init__(self, core: StoreServer, *, max_clients: int = ASYNC_MAX_CLIENTS) -> None:
        if max_clients <= 0:
            raise ConfigurationError("max_clients must be positive")
        core.carrier = self  # STATS reports this engine's label, bound and connections
        self._core = core
        self.max_clients = max_clients
        self._selector: selectors.BaseSelector | None = None
        self._listener: socket.socket | None = None
        # stop() writes a byte into this pair to end a blocking select()
        self._wake_pair: tuple[socket.socket, socket.socket] | None = None
        self._thread: threading.Thread | None = None
        self._connections: set[_Connection] = set()
        self._chunk = memoryview(bytearray(READ_CHUNK))
        self._lifecycle_lock = threading.Lock()
        self._started = False
        self._stopped = False
        self.address: tuple[str, int] | None = None

    # ------------------------------------------------------------------
    # Introspection (same surface as the threaded server)
    # ------------------------------------------------------------------
    @property
    def obs(self) -> Observability:
        return self._core.obs

    @property
    def core(self) -> StoreServer:
        """The command core executing this engine's requests."""
        return self._core

    @property
    def commands_served(self) -> int:
        return self._core.commands_served

    @property
    def rejected_clients(self) -> int:
        return self._core.rejected_clients

    def stats_pairs(self) -> list[tuple[str, str]]:
        return self._core.stats_pairs()

    def install_topology(self, topology, self_name: str) -> None:
        """Join a cluster (delegates to the command core; see
        :meth:`repro.net.server.CacheServer.install_topology`)."""
        self._core.install_topology(topology, self_name)

    @property
    def cluster_topology(self):
        return self._core.cluster_topology

    def connection_count(self) -> int:
        return len(self._connections)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> tuple[str, int]:
        """Bind, warm-load any snapshot, and begin serving.  Calling
        ``start`` on an already-running engine returns the bound address
        instead of starting a second reactor."""
        with self._lifecycle_lock:
            if self._started and not self._stopped:
                assert self.address is not None
                return self.address
            if self._stopped:
                raise ConfigurationError("engine already stopped; build a new one")
            self._started = True
        self._core.prepare()
        listener = socket.create_server(
            (self._core.host, self._core.port), backlog=min(self.max_clients, 1024)
        )
        listener.setblocking(False)
        self._listener = listener
        self.address = listener.getsockname()
        self._wake_pair = socket.socketpair()
        self._selector = selectors.DefaultSelector()
        self._selector.register(listener, selectors.EVENT_READ)
        self._selector.register(self._wake_pair[0], selectors.EVENT_READ)
        self._thread = threading.Thread(target=self._run, name="aio-server-loop", daemon=True)
        self._thread.start()
        if self.obs.enabled:
            self.obs.emit(
                "aio_server_started",
                host=self.address[0],
                port=self.address[1],
                max_clients=self.max_clients,
            )
        return self.address

    def stop(self) -> None:
        """Stop accepting, drop every connection, join the reactor thread.
        Idempotent and callable from any thread (SHUTDOWN uses a helper)."""
        with self._lifecycle_lock:
            already = self._stopped or not self._started
            self._stopped = True
        self._core.stop()  # unblocks serve_forever(), closes cluster peers
        if already:
            return
        if self._wake_pair is not None:
            with suppress(OSError):
                self._wake_pair[1].send(b"\0")
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=5)
        if self.obs.enabled:
            self.obs.emit("aio_server_stopped")

    def serve_forever(self) -> None:
        """Block until the engine is shut down (CLI entry point)."""
        self._core.serve_forever()

    def __enter__(self) -> "AsyncServerEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Reactor thread
    # ------------------------------------------------------------------
    def _run(self) -> None:
        selector = self._selector
        try:
            while not self._stopped:  # the wake pair's byte only ends select()
                for key, events in selector.select():
                    connection = key.data
                    if key.fileobj is self._listener:
                        self._accept()
                    elif connection is not None and connection.sock is not None:
                        self._serve_events(connection, events)
        finally:
            for connection in list(self._connections):
                self._close(connection)  # force-drop, like the threaded stop()
            selector.close()
            for sock in (self._listener, *self._wake_pair):
                sock.close()

    def _accept(self) -> None:
        core, obs = self._core, self._core.obs
        while True:
            try:
                sock, _peer = self._listener.accept()
            except OSError:  # none left (BlockingIOError), or fd exhaustion
                return
            if len(self._connections) >= self.max_clients:
                if obs.enabled:
                    obs.inc("net.aio.rejected")
                with suppress(OSError):
                    sock.send(core.refuse())
                sock.close()
                continue
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            connection = _Connection(self, sock)
            self._selector.register(sock, selectors.EVENT_READ, connection)
            self._connections.add(connection)
            core.connected()
            if obs.enabled:
                obs.gauge("net.aio.connections").inc()

    def _serve_events(self, connection: _Connection, events: int) -> None:
        try:
            if events & selectors.EVENT_WRITE:
                self._flush(connection)
            if events & selectors.EVENT_READ and connection.sock is not None:
                self._read(connection)
        except Exception:  # noqa: BLE001 - one failing connection must not end the reactor
            sys.excepthook(*sys.exc_info())
            self._close(connection)

    def _read(self, connection: _Connection) -> None:
        core, obs = self._core, self._core.obs
        try:
            received = connection.sock.recv_into(self._chunk)
        except BlockingIOError:
            return
        except OSError:
            self._close(connection)
            return
        if not received:  # EOF: flush the replies owed, then close
            connection.keep_open = False
            self._flush(connection)
            return
        connection.buffer += self._chunk[:received]
        replies, connection.keep_open = core.serve_burst(
            connection.parser, connection.buffer, connection
        )
        if replies:
            if obs.enabled:
                obs.histogram("net.aio.batch").observe(len(replies))
                if len(replies) > 1:
                    obs.inc("net.aio.pipelined", len(replies) - 1)
            self._write(connection, b"".join(replies))
        if core.stopping.is_set():
            # SHUTDOWN was dispatched here; stop() joins this thread, so run it elsewhere
            threading.Thread(target=self.stop, daemon=True).start()

    def _write(self, connection: _Connection, data: bytes) -> None:
        if connection.sock is None:
            return  # closed inside the burst (a failed push to itself)
        connection.unsent += data
        self._flush(connection)

    def _flush(self, connection: _Connection) -> None:
        """Send what the peer will take, then re-arm: write while bytes are
        unsent, read while under the high-water mark, close a flushed end."""
        unsent = connection.unsent
        if unsent:
            try:
                sent = connection.sock.send(unsent)
            except BlockingIOError:
                sent = 0
            except OSError:
                self._close(connection)
                return
            del unsent[:sent]
        if not connection.keep_open and not unsent:
            self._close(connection)
            return
        events = selectors.EVENT_WRITE if unsent else 0
        if connection.keep_open and len(unsent) <= WRITE_HIGH_WATER:
            events |= selectors.EVENT_READ
        if events != connection.events:
            self._selector.modify(connection.sock, events, connection)
            connection.events = events

    def _close(self, connection: _Connection) -> None:
        sock, connection.sock = connection.sock, None
        if sock is None:
            return
        self._selector.unregister(sock)
        sock.close()
        self._connections.discard(connection)
        self._core.disconnected(connection)
        if self._core.obs.enabled:
            self._core.obs.gauge("net.aio.connections").dec()


class AsyncCacheServer(AsyncServerEngine):
    """Reactor engine over an in-memory cache keyspace.

    Drop-in for :class:`~repro.net.server.CacheServer`: same constructor
    surface (plus ``max_clients``), same lifecycle, same commands.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_entries: int | None = None,
        snapshot_path: str | Path | None = None,
        max_clients: int = ASYNC_MAX_CLIENTS,
        obs: Observability | None = None,
    ) -> None:
        super().__init__(
            CacheServer(host, port, max_entries=max_entries,
                        snapshot_path=snapshot_path, obs=obs),
            max_clients=max_clients,
        )


class AsyncStoreServer(AsyncServerEngine):
    """Reactor engine hosting any :class:`~repro.kv.interface.KeyValueStore`.

    Drop-in for :class:`~repro.net.server.StoreServer`.  Store operations
    execute on the reactor thread; a store with slow synchronous operations
    (e.g. ``fsync``-per-write) will stall every connection for their
    duration -- prefer the threaded engine for such backends, or batch via
    MSET/pipelining (see docs/serving.md).
    """

    def __init__(
        self,
        store: "KeyValueStore",
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_clients: int = ASYNC_MAX_CLIENTS,
        obs: Observability | None = None,
    ) -> None:
        super().__init__(
            StoreServer(store, host, port, obs=obs), max_clients=max_clients
        )
