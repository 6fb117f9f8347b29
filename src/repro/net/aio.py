"""Event-loop serving engine for the cache/store wire protocol.

The threaded server (:mod:`repro.net.server`) spends one OS thread per
connection.  That is the right shape for a handful of chatty benchmark
clients, but it caps concurrent clients at the thread budget -- far below
the "traffic from millions of users" target.  This module rebuilds the
serving plane as a **reactor**: one ``asyncio`` event loop multiplexes
every connection, a connection costs a socket plus a read buffer instead of
a thread, and request **pipelining** falls out naturally -- whatever burst
of requests arrives in one socket read is dispatched back-to-back and
answered with one batched write.

Design notes (the long-form story is ``docs/serving.md``):

* **Same protocol, same commands.**  The engine does not reimplement the
  command set.  It owns a :class:`~repro.net.server.StoreServer` (or its
  :class:`~repro.net.server.CacheServer` subclass) as its *command core*
  and hands every socket read to ``core.serve_burst`` -- the threaded
  engine's request loop too -- so parsing, GET/SET semantics, STATS,
  pub/sub, and per-command observability are byte-identical across
  engines, and every existing synchronous client works unchanged.  The engine touches the core only
  through its public names (``docs/serving.md`` lists them).
* **Sync facade.**  The loop runs on a dedicated daemon thread;
  :meth:`AsyncServerEngine.start`/:meth:`~AsyncServerEngine.stop` look
  exactly like the threaded server's, so :class:`~repro.net.server.ServerHandle`,
  the CLI, and the tests drive either engine interchangeably.
* **Ordering.**  Commands execute on the loop thread in arrival order per
  connection; replies never interleave within a connection.  The price is
  that a slow store operation stalls the whole loop -- the engines trade
  per-connection parallelism for connection scalability (see
  ``docs/serving.md`` for when to pick which).
* **Loaded on start.**  ``asyncio`` (and the ``ssl``, ``logging`` and
  ``concurrent.futures`` it pulls in) is imported when an engine starts,
  not when this module is imported: a process that imports both engines
  to pick one from its config and runs the threaded one never pays for
  the event loop (``docs/architecture.md``, "What a process loads").
* **Backpressure.**  After writing a reply batch the handler awaits
  ``drain()``, so a slow reader suspends only its own connection's
  coroutine, and the read loop stops pulling new requests from a peer
  whose replies it cannot flush.

Metrics (on the core's bundle, beside the shared ``server.*`` family):
``net.aio.connections`` (gauge), ``net.aio.pipelined`` (requests served
from an already-buffered batch beyond the first), ``net.aio.batch``
(histogram of requests per socket read), and ``net.aio.rejected``
(connections refused at ``max_clients``).  Events: ``aio_server_started``
/ ``aio_server_stopped``.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import TYPE_CHECKING

from ..errors import ConfigurationError
from ..obs import Observability
from . import protocol
from .server import CacheServer, StoreServer

if TYPE_CHECKING:  # pragma: no cover - typing only
    import asyncio

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


#: Default concurrent-connection bound for the event-loop engine.  A
#: connection here is a file descriptor and a buffer, not a thread, so the
#: bound is probed from the process fd budget (:func:`probe_fd_budget`)
#: rather than hardcoded -- on a typical 20k-fd container that lands well
#: above the old 4096 constant and ~150x above the threaded engine's
#: :data:`~repro.net.server.THREADED_MAX_CLIENTS`.
ASYNC_MAX_CLIENTS = probe_fd_budget()

#: Bytes pulled per socket read; one read may carry many pipelined requests.
READ_CHUNK = 64 * 1024


class _AsyncConnection:
    """A connection's write side, as seen by the command core.

    Fills the same role as the threaded server's ``_ConnectionContext``:
    pub/sub fan-out calls :meth:`send` to push a frame at a subscriber.
    All sends happen on the loop thread (fan-out runs inside a dispatch),
    so no lock is needed -- the transport buffers the write.

    Carries the connection's declared topology epoch exactly like the
    threaded ``_ConnectionContext`` (set by the ``CEPOCH`` command).
    """

    __slots__ = ("_writer", "cluster_epoch")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self._writer = writer
        self.cluster_epoch: int | None = None

    def send(self, frame: bytes) -> None:
        if self._writer.is_closing():
            raise OSError("connection is closing")
        self._writer.write(frame)


class AsyncServerEngine:
    """Run a threaded-server command core on an asyncio event loop.

    Generic over the core: pass any constructed (but not started)
    :class:`~repro.net.server.StoreServer` (or subclass) instance.  The
    convenience classes :class:`AsyncCacheServer` and
    :class:`AsyncStoreServer` build the usual cores for you.

    Lifecycle mirrors the threaded server: :meth:`start` binds and returns
    ``(host, port)``, :meth:`stop` tears everything down (idempotent; the
    loop, its thread, the listener, and every live connection are released,
    so the port is immediately reusable), :meth:`serve_forever` blocks
    until shutdown.  ``STATS``, :attr:`obs`, and :meth:`stats_pairs` are
    served by the core and report ``server.engine = async``.
    """

    engine = "async"

    def __init__(self, core: StoreServer, *, max_clients: int = ASYNC_MAX_CLIENTS) -> None:
        if max_clients <= 0:
            raise ConfigurationError("max_clients must be positive")
        core.carrier = self  # STATS reports this engine's label, bound and connections
        self._core = core
        self.max_clients = max_clients
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[asyncio.StreamWriter] = set()
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
        instead of leaking a second loop."""
        with self._lifecycle_lock:
            if self._started and not self._stopped:
                assert self.address is not None
                return self.address
            if self._stopped:
                raise ConfigurationError("engine already stopped; build a new one")
            self._started = True
        import asyncio  # paid by a started engine, not by importing this module

        self._core.prepare()
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run_loop, name="aio-server-loop", daemon=True
        )
        self._thread.start()
        future = asyncio.run_coroutine_threadsafe(self._open_listener(), self._loop)
        try:
            self.address = future.result(timeout=10)
        except Exception:
            self._teardown_loop()
            raise
        if self.obs.enabled:
            self.obs.emit(
                "aio_server_started",
                host=self.address[0],
                port=self.address[1],
                max_clients=self.max_clients,
            )
        return self.address

    def stop(self) -> None:
        """Stop accepting, drop every connection, tear the loop down.
        Idempotent and callable from any thread (including, via a helper
        thread, the loop thread itself -- the SHUTDOWN command path)."""
        with self._lifecycle_lock:
            already = self._stopped or not self._started
            self._stopped = True
        self._core.stop()  # unblocks serve_forever(), closes cluster peers
        if already:
            return
        loop = self._loop
        if loop is not None and not loop.is_closed():
            import asyncio

            future = asyncio.run_coroutine_threadsafe(self._close_all(), loop)
            try:
                future.result(timeout=5)
            except Exception:  # noqa: BLE001 - teardown is best effort
                pass
        self._teardown_loop()
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
    # Loop-side internals
    # ------------------------------------------------------------------
    def _run_loop(self) -> None:
        import asyncio

        assert self._loop is not None
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_forever()
            # Drain whatever stop() left behind so the loop closes clean.
            pending = asyncio.all_tasks(self._loop)
            for task in pending:
                task.cancel()
            if pending:
                self._loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
        finally:
            self._loop.close()

    def _teardown_loop(self) -> None:
        loop, thread = self._loop, self._thread
        if loop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(loop.stop)
            except RuntimeError:
                pass  # loop already closed under us
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=5)
        self._server = None

    async def _open_listener(self) -> tuple[str, int]:
        import asyncio

        self._server = await asyncio.start_server(
            self._handle_connection,
            self._core.host,
            self._core.port,
            backlog=min(self.max_clients, 1024),
        )
        return self._server.sockets[0].getsockname()

    async def _close_all(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for writer in list(self._connections):
            transport = writer.transport
            if transport is not None:
                transport.abort()  # force-drop, like the threaded stop()

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        core, obs = self._core, self._core.obs
        if len(self._connections) >= self.max_clients:
            writer.write(core.refuse())
            if obs.enabled:
                obs.inc("net.aio.rejected")
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            writer.close()
            return
        connection = _AsyncConnection(writer)
        self._connections.add(writer)
        core.connected()
        if obs.enabled:
            obs.gauge("net.aio.connections").inc()
        try:
            await self._connection_loop(reader, writer, connection)
        finally:
            core.disconnected(connection)
            self._connections.discard(writer)
            if obs.enabled:
                obs.gauge("net.aio.connections").dec()
            if not writer.is_closing():
                writer.close()

    async def _connection_loop(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        connection: _AsyncConnection,
    ) -> None:
        core, obs = self._core, self._core.obs
        buffer = bytearray()
        parser = protocol.CommandParser()
        keep_open = True
        while keep_open:
            data = await reader.read(READ_CHUNK)
            if not data:
                return  # clean disconnect
            buffer += data
            replies, keep_open = core.serve_burst(parser, buffer, connection)
            if replies:
                if obs.enabled:
                    obs.histogram("net.aio.batch").observe(len(replies))
                    if len(replies) > 1:
                        obs.inc("net.aio.pipelined", len(replies) - 1)
                writer.write(b"".join(replies))
                try:
                    await writer.drain()  # backpressure: suspend this peer only
                except (ConnectionError, OSError):
                    return
            if core.stopping.is_set():
                # A SHUTDOWN command was dispatched on this loop; the
                # engine must be stopped from *outside* the loop thread.
                threading.Thread(target=self.stop, daemon=True).start()
                return


class AsyncCacheServer(AsyncServerEngine):
    """Event-loop engine over an in-memory cache keyspace.

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
            CacheServer(
                host,
                port,
                max_entries=max_entries,
                snapshot_path=snapshot_path,
                obs=obs,
            ),
            max_clients=max_clients,
        )


class AsyncStoreServer(AsyncServerEngine):
    """Event-loop engine hosting any :class:`~repro.kv.interface.KeyValueStore`.

    Drop-in for :class:`~repro.net.server.StoreServer`.  Store operations
    execute on the loop thread; a store with slow synchronous operations
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
