"""Client for the remote-process cache server.

The Python analogue of the Jedis client used in the paper's evaluation: a
thin, thread-safe TCP client speaking the protocol in
:mod:`repro.net.protocol`.  Values are raw ``bytes`` at this layer --
serialization happens above, in :class:`repro.kv.remote.RemoteKeyValueStore`
(which :class:`repro.caching.remote.RemoteProcessCache` puts behind the cache
interface) -- so the per-byte IPC cost the paper measures is visible and
attributable.  A ``str`` key or argument is sent as its
:func:`~repro.kv.interface.encode_key` bytes.

The client transparently reconnects once after a dropped connection (servers
restart; long-lived applications should not fall over because of it), then
surfaces :class:`~repro.errors.StoreConnectionError`; a pipeline is never
retried.  Every request, pipelines included, goes through one exchange that
honours the ambient :mod:`~repro.kv.deadline` budget.
"""

from __future__ import annotations

import socket
import threading
from typing import Any, NamedTuple

from ..errors import DeadlineExceededError, ProtocolError, StoreConnectionError
from ..kv.deadline import current_deadline, expired
from ..obs import Observability, resolve_obs
from . import protocol
from .protocol import NIL, SimpleString, WireError

__all__ = [
    "CacheClient",
    "ClusterAwareClient",
    "MovedRedirect",
    "Pipeline",
    "SubscriberClient",
    "parse_moved",
]


class MovedRedirect(NamedTuple):
    """Parsed form of a ``-MOVED <epoch> <shard> <host>:<port>`` redirect.

    A cluster server answers MOVED for every key it does not own: the named
    shard at ``host:port`` owns the key under topology version *epoch* (see
    ``docs/cluster.md``).
    """

    epoch: int
    shard: str
    host: str
    port: int

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)


def parse_moved(message: str) -> MovedRedirect | None:
    """Parse a MOVED redirect out of an error message; ``None`` if it isn't one."""
    parts = str(message).split()
    if len(parts) != 4 or parts[0] != "MOVED":
        return None
    host, _, port = parts[3].rpartition(":")
    if not host:
        return None
    try:
        return MovedRedirect(int(parts[1]), parts[2], host, int(port))
    except ValueError:
        return None


class CacheClient:
    """Synchronous, thread-safe client for :class:`~repro.net.server.CacheServer`.

    Pass an :class:`~repro.obs.Observability` bundle to time every TCP
    round trip (``net.roundtrip`` span + ``net.roundtrip.seconds``
    histogram) and count reconnects (``net.client.reconnects``).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        connect_timeout: float = 5.0,
        operation_timeout: float = 30.0,
        obs: Observability | None = None,
    ) -> None:
        self._host = host
        self._port = port
        self._connect_timeout = connect_timeout
        self._operation_timeout = operation_timeout
        self._obs = resolve_obs(obs)
        self._lock = threading.RLock()
        self._sock: socket.socket | None = None
        self._stream: Any = None
        self._reader: protocol.FrameReader | None = None
        self._closed = False
        #: Transparent reconnects performed so far (diagnostics; the cluster
        #: gate uses it to prove a cluster client converged *without* reconnecting).
        self.reconnects = 0

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    def _connect(self, timeout: float) -> None:
        try:
            sock = socket.create_connection((self._host, self._port), timeout=timeout)
        except OSError as exc:
            raise StoreConnectionError(
                f"cannot connect to cache server {self._host}:{self._port}: {exc}"
            ) from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._stream = sock.makefile("rwb")
        self._reader = protocol.FrameReader(self._stream)

    def _drop_connection(self) -> None:
        if self._stream is not None:
            try:
                self._stream.close()
            except OSError:
                pass
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        self._sock = None
        self._stream = None
        self._reader = None

    def _handshake(self) -> "list[list[bytes | str]]":
        """Commands a fresh connection sends in its first write, ahead of the
        request; their replies are read and discarded.  A plain client sends
        none."""
        return []

    def _roundtrip(self, args: list[bytes | str]) -> protocol.Frame:
        """Send one command and read one reply, reconnecting once on failure."""
        return self._exchange([args], 2)[0]

    def _exchange(
        self, commands: "list[list[bytes | str]]", attempts: int
    ) -> list[protocol.Frame]:
        """Every request's way to the socket, timed as one ``net.roundtrip``."""
        if not self._obs.enabled:
            return self._transact(commands, attempts)
        command = commands[0][0] if len(commands) == 1 else "PIPELINE"
        if isinstance(command, bytes):
            command = command.decode("ascii", "replace")
        with self._obs.stage("net.roundtrip", metric="net.roundtrip", command=command):
            return self._transact(commands, attempts)

    def _transact(
        self, commands: "list[list[bytes | str]]", attempts: int
    ) -> list[protocol.Frame]:
        """Write *commands* in one write and read one reply per command.

        A failed attempt drops the connection; up to *attempts* connections
        are tried.  Each attempt takes its connect and socket timeouts from
        the ambient deadline (``operation_timeout`` when none is in scope,
        which also restores it after a deadline-scoped call) and none starts
        once the budget is spent.  A fresh connection's first write carries
        :meth:`_handshake` ahead of *commands*.
        """
        with self._lock:
            if self._closed:
                raise StoreConnectionError("client is closed")
            last_error: Exception | None = None
            deadline = current_deadline()
            for attempt in range(attempts):
                if deadline is not None and deadline.expired:
                    raise self._deadline_expired() from last_error
                batch = commands
                if self._sock is None:
                    self._connect(
                        self._connect_timeout
                        if deadline is None
                        else deadline.cap(self._connect_timeout)
                    )
                    batch = self._handshake() + commands
                assert self._sock is not None
                self._sock.settimeout(
                    self._operation_timeout
                    if deadline is None
                    else deadline.cap(self._operation_timeout)
                )
                try:
                    assert self._stream is not None and self._reader is not None
                    self._stream.write(b"".join(map(protocol.encode_command, batch)))
                    self._stream.flush()
                    replies = []
                    for _ in batch:
                        replies.append(self._reader.read_frame(allow_eof=False))
                except (OSError, ProtocolError) as exc:
                    last_error = exc
                    self._drop_connection()
                    if attempt + 1 < attempts:
                        self.reconnects += 1
                        if self._obs.enabled:
                            self._obs.inc("net.client.reconnects")
                            self._obs.event("reconnect", error=type(exc).__name__)
                    continue
                return replies[len(batch) - len(commands):]
            if deadline is not None and deadline.expired:
                raise self._deadline_expired() from last_error
            raise StoreConnectionError(
                f"cache operation failed against {self._host}:{self._port}: {last_error}"
            ) from last_error

    def _deadline_expired(self) -> DeadlineExceededError:
        address = f"{self._host}:{self._port}"
        message = f"no deadline budget left for cache operation against {address}"
        return expired(self._obs, address, message)

    @staticmethod
    def _raise_on_error(frame: protocol.Frame) -> protocol.Frame:
        if isinstance(frame, WireError):
            raise frame
        return frame

    @property
    def last_epoch(self) -> int | None:
        """Most recent topology epoch the server piggybacked on a reply
        (``None`` until one is seen; resets on reconnect)."""
        reader = self._reader
        return None if reader is None else reader.last_epoch

    def call(self, args: "list[bytes | str]") -> protocol.Frame:
        """Send one raw command and return the decoded reply frame.

        Unlike the typed command methods, error replies come back as
        :class:`~repro.net.protocol.WireError` *values* rather than being
        raised -- callers that inspect a reply (a ``TOPOLOGY`` fetch, a
        ``-MOVED`` redirect) need the error as data.
        """
        return self._roundtrip(args)

    # ------------------------------------------------------------------
    # Commands
    # ------------------------------------------------------------------
    def ping(self) -> bool:
        """Round-trip health check."""
        reply = self._raise_on_error(self._roundtrip(["PING"]))
        return reply == SimpleString("PONG")

    def get(self, key: bytes) -> bytes | None:
        """Fetch *key*; ``None`` if absent (or expired)."""
        reply = self._raise_on_error(self._roundtrip(["GET", key]))
        if reply is NIL:
            return None
        if not isinstance(reply, bytes):
            raise ProtocolError(f"GET returned unexpected frame {type(reply).__name__}")
        return reply

    def set(self, key: bytes, value: bytes, *, ttl: float | None = None) -> None:
        """Store *value* under *key*, optionally expiring after *ttl* seconds."""
        if ttl is None:
            self._raise_on_error(self._roundtrip(["SET", key, value]))
        else:
            self._raise_on_error(self._roundtrip(["SETEX", key, f"{ttl:.6f}", value]))

    def delete(self, *keys: bytes) -> int:
        """Delete keys; returns how many existed."""
        if not keys:
            return 0
        reply = self._raise_on_error(self._roundtrip(["DEL", *keys]))
        return int(reply)  # type: ignore[arg-type]

    def exists(self, key: bytes) -> bool:
        reply = self._raise_on_error(self._roundtrip(["EXISTS", key]))
        return bool(reply)

    def keys(self) -> list[bytes]:
        reply = self._raise_on_error(self._roundtrip(["KEYS"]))
        if not isinstance(reply, list):
            raise ProtocolError("KEYS returned a non-array frame")
        return [member for member in reply if isinstance(member, bytes)]

    def dbsize(self) -> int:
        reply = self._raise_on_error(self._roundtrip(["DBSIZE"]))
        return int(reply)  # type: ignore[arg-type]

    def flushall(self) -> None:
        self._raise_on_error(self._roundtrip(["FLUSHALL"]))

    def ttl(self, key: bytes) -> int:
        """Remaining TTL in whole seconds; -1 = no TTL, -2 = no such key."""
        reply = self._raise_on_error(self._roundtrip(["TTL", key]))
        return int(reply)  # type: ignore[arg-type]

    def getver(self, key: bytes) -> str | None:
        """Server-side version token for *key* (content hash), or ``None``."""
        reply = self._raise_on_error(self._roundtrip(["GETVER", key]))
        if reply is NIL:
            return None
        assert isinstance(reply, bytes)
        return reply.decode("ascii")

    def save(self) -> None:
        """Ask the server to snapshot its keyspace to disk."""
        self._raise_on_error(self._roundtrip(["SAVE"]))

    def stats(self) -> dict[str, str]:
        """Live server statistics (the ``STATS`` command).

        Returns the server's key/value pairs -- uptime, live connection and
        key counts, and per-command call counts and latency figures (see
        ``docs/protocol.md``).  Values are decimal strings; parse what you
        need.
        """
        reply = self._raise_on_error(self._roundtrip(["STATS"]))
        if not isinstance(reply, list) or len(reply) % 2:
            raise ProtocolError("STATS returned a malformed reply")
        pairs: dict[str, str] = {}
        for index in range(0, len(reply), 2):
            key, value = reply[index], reply[index + 1]
            if not isinstance(key, bytes) or not isinstance(value, bytes):
                raise ProtocolError("STATS returned non-bulk members")
            pairs[key.decode("ascii")] = value.decode("ascii")
        return pairs

    def publish(self, channel: bytes, payload: bytes) -> int:
        """Broadcast *payload* on *channel*; returns the subscriber count
        it reached (see :class:`SubscriberClient`)."""
        reply = self._raise_on_error(self._roundtrip(["PUBLISH", channel, payload]))
        return int(reply)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # Batching: multi-key commands and pipelining
    # ------------------------------------------------------------------
    def mget(self, keys: list[bytes]) -> list[bytes | None]:
        """Fetch many keys in ONE round trip (``None`` for absent keys)."""
        if not keys:
            return []
        reply = self._raise_on_error(self._roundtrip(["MGET", *keys]))
        if not isinstance(reply, list):
            raise ProtocolError("MGET returned a non-array frame")
        return [member if isinstance(member, bytes) else None for member in reply]

    def mset(self, items: dict[bytes, bytes]) -> None:
        """Store many (key, value) pairs in ONE round trip."""
        if not items:
            return
        flat: list[bytes | str] = ["MSET"]
        for key, value in items.items():
            flat.append(key)
            flat.append(value)
        self._raise_on_error(self._roundtrip(flat))

    def execute_pipeline(
        self, commands: "list[list[bytes | str]]"
    ) -> list[protocol.Frame]:
        """Send *commands* back-to-back, then read all replies.

        Pipelining removes the per-command round trip: N commands cost one
        network flush plus N server dispatches instead of N round trips.
        Error replies come back as :class:`~repro.net.protocol.WireError`
        *values* in the result list (other commands still succeed), exactly
        like Redis pipelines.  A pipeline is one attempt, never retried (some
        commands may already have run), bounded by the ambient deadline.
        """
        if not commands:
            return []
        return self._exchange(commands, 1)

    def pipeline(self) -> "Pipeline":
        """Start collecting commands for one batched flush."""
        return Pipeline(self)

    def shutdown_server(self) -> None:
        """Ask the server to shut down (used by tests and tooling)."""
        try:
            self._roundtrip(["SHUTDOWN"])
        except StoreConnectionError:
            pass  # server may close before replying
        self._drop_connection()

    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._closed = True
                self._drop_connection()

    def __enter__(self) -> "CacheClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class ClusterAwareClient(CacheClient):
    """A :class:`CacheClient` that declares its routing epoch on connect.

    Every fresh connection's first write carries ``CEPOCH <epoch>`` ahead of
    the request, telling the server which topology version it routes by.  The server then
    piggybacks its own epoch on replies whenever the declared one is stale
    (see ``docs/cluster.md``).

    Against a pre-cluster server the declaration is rejected with an
    unknown-command error; the client tolerates that and behaves exactly
    like a plain :class:`CacheClient`.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        epoch_source=None,
        connect_timeout: float = 5.0,
        operation_timeout: float = 30.0,
        obs: Observability | None = None,
    ) -> None:
        super().__init__(
            host,
            port,
            connect_timeout=connect_timeout,
            operation_timeout=operation_timeout,
            obs=obs,
        )
        #: Zero-arg callable returning the epoch this client routes by; the
        #: owning smart client supplies its topology's epoch.
        self._epoch_source = epoch_source if epoch_source is not None else (lambda: 0)

    def _handshake(self) -> "list[list[bytes | str]]":
        return [["CEPOCH", str(int(self._epoch_source()))]]

    def declare(self, epoch: int) -> None:
        """Re-declare the routed-by epoch on the live connection.

        Called by the smart client after a topology refresh so the server
        stops flagging this connection as stale -- no reconnect needed.
        """
        self._roundtrip(["CEPOCH", str(int(epoch))])


class Pipeline:
    """Builder for a batched command flush (see
    :meth:`CacheClient.execute_pipeline`).

    Usage::

        pipe = client.pipeline()
        pipe.set(b"a", b"1")
        pipe.get(b"b")
        pipe.delete(b"c")
        replies = pipe.execute()    # one round trip for everything
    """

    def __init__(self, client: CacheClient) -> None:
        self._client = client
        self._commands: list[list[bytes | str]] = []

    def __len__(self) -> int:
        return len(self._commands)

    def get(self, key: bytes) -> "Pipeline":
        self._commands.append(["GET", key])
        return self

    def set(self, key: bytes, value: bytes, *, ttl: float | None = None) -> "Pipeline":
        if ttl is None:
            self._commands.append(["SET", key, value])
        else:
            self._commands.append(["SETEX", key, f"{ttl:.6f}", value])
        return self

    def delete(self, *keys: bytes) -> "Pipeline":
        self._commands.append(["DEL", *keys])
        return self

    def exists(self, key: bytes) -> "Pipeline":
        self._commands.append(["EXISTS", key])
        return self

    def execute(self) -> list[protocol.Frame]:
        """Flush the batch; returns one decoded frame per queued command.

        GET replies are ``bytes`` or :data:`~repro.net.protocol.NIL`; SET
        replies are ``SimpleString('OK')``; errors are ``WireError`` values.
        The builder resets afterwards and can be reused.
        """
        commands, self._commands = self._commands, []
        return self._client.execute_pipeline(commands)


class SubscriberClient:
    """Dedicated pub/sub connection: subscribes to channels and dispatches
    pushed messages to callbacks on a background thread.

    Pub/sub needs its own connection because the server pushes frames at
    any time, which cannot share a socket with request/reply traffic.
    Callbacks run on the subscriber's reader thread; keep them short, and
    never call back into this client from one.
    """

    def __init__(self, host: str, port: int, *, connect_timeout: float = 5.0) -> None:
        try:
            self._sock = socket.create_connection((host, port), timeout=connect_timeout)
        except OSError as exc:
            raise StoreConnectionError(
                f"cannot connect subscriber to {host}:{port}: {exc}"
            ) from exc
        self._sock.settimeout(None)  # the reader blocks for pushes
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._stream = self._sock.makefile("rwb")
        self._reader = protocol.FrameReader(self._stream)
        self._callbacks: dict[bytes, Any] = {}
        self._lock = threading.Lock()
        self._closed = False
        self._subscribed = threading.Event()
        self._thread = threading.Thread(
            target=self._listen, name="cache-subscriber", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    def subscribe(self, channel: bytes, callback) -> None:
        """Register *callback(channel, payload)* for *channel*.

        Blocks until the server confirms the subscription, so a
        ``publish`` issued afterwards is guaranteed to reach it: at most
        10 s, or what is left of the ambient deadline
        (:class:`~repro.errors.DeadlineExceededError` when that runs out).
        """
        deadline = current_deadline()
        if deadline is not None:
            deadline.check("subscription")
        with self._lock:
            if self._closed:
                raise StoreConnectionError("subscriber is closed")
            self._callbacks[channel] = callback
            self._subscribed.clear()
            self._stream.write(protocol.encode_command([b"SUBSCRIBE", channel]))
            self._stream.flush()
        wait = 10.0 if deadline is None else deadline.cap(10.0)
        if not self._subscribed.wait(wait):
            if wait < 10.0:
                raise DeadlineExceededError(
                    f"subscription was not confirmed within its "
                    f"{deadline.timeout:.3f}s deadline"
                )
            raise StoreConnectionError("subscription was not confirmed")

    def unsubscribe(self, channel: bytes) -> None:
        with self._lock:
            self._callbacks.pop(channel, None)
            if not self._closed:
                self._stream.write(protocol.encode_command([b"UNSUBSCRIBE", channel]))
                self._stream.flush()

    def _listen(self) -> None:
        while True:
            try:
                frame = self._reader.read_frame(allow_eof=True)
            except Exception:  # noqa: BLE001 - socket torn down
                return
            if frame is None:
                return
            if not isinstance(frame, list) or len(frame) != 3:
                continue  # confirmation frames and noise
            kind, channel, payload = frame
            if kind == b"subscribe":
                self._subscribed.set()
                continue
            if kind != b"message":
                continue
            callback = self._callbacks.get(channel)
            if callback is not None:
                try:
                    callback(channel, payload)
                except Exception:  # noqa: BLE001 - callbacks must not kill the reader
                    pass

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            # Unblock the reader thread first: closing the buffered stream
            # while another thread is mid-read would contend on its lock.
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        self._thread.join(timeout=2)
        try:
            self._stream.close()
        except (OSError, ValueError):
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "SubscriberClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
