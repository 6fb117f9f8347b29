"""Wire protocol for the remote-process cache.

A small REdis-Serialization-Protocol (RESP) dialect, chosen because it is
trivially parseable, self-delimiting, and binary-safe:

* A **request** is an array of bulk strings::

      *<argc>\\r\\n  then per argument:  $<len>\\r\\n<bytes>\\r\\n

* A **response** is one of:

  - simple string  ``+OK\\r\\n``
  - error          ``-ERR message\\r\\n``
  - integer        ``:42\\r\\n``
  - bulk string    ``$<len>\\r\\n<bytes>\\r\\n``
  - nil bulk       ``$-1\\r\\n``
  - array          ``*<n>\\r\\n`` followed by *n* responses

* A response may be prefixed by a **topology-epoch header** ``^<epoch>\\r\\n``
  (cluster serving, see :mod:`repro.cluster`): the server's current
  topology epoch, piggybacked so a stale client learns of membership
  changes without polling.  :class:`FrameReader` consumes the header
  transparently -- it records the value in :attr:`FrameReader.last_epoch`
  and returns the frame that follows -- so epoch-unaware callers keep
  working unchanged.

Both serving engines parse requests with :class:`CommandParser` (resumable,
over the bytes each socket read appended); clients parse replies with
:class:`FrameReader` off a buffered socket file.  Everyone produces frames
with the ``encode_*`` helpers.  Violations raise
:class:`~repro.errors.ProtocolError`.
"""

from __future__ import annotations

from typing import BinaryIO, Sequence, Union

from ..errors import ProtocolError
from ..kv.interface import encode_key

__all__ = [
    "NIL",
    "SimpleString",
    "WireError",
    "encode_command",
    "encode_simple",
    "encode_error",
    "encode_integer",
    "encode_bulk",
    "encode_nil",
    "encode_array",
    "encode_epoch",
    "FrameReader",
    "CommandParser",
    "try_parse_command",
]

_CRLF = b"\r\n"
_MAX_BULK = 512 * 1024 * 1024  # sanity bound: 512 MiB per frame
_MAX_HEADER = 64  # sanity bound: digits in a length header line


class _Nil:
    """Singleton decoded form of the nil bulk string."""

    _instance: "_Nil | None" = None

    def __new__(cls) -> "_Nil":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "<NIL>"

    def __bool__(self) -> bool:
        return False


#: Decoded form of ``$-1\r\n``.
NIL = _Nil()


class SimpleString(str):
    """Decoded form of a ``+...`` simple string (distinct from bulk data)."""


class WireError(Exception):
    """Decoded form of a ``-...`` error response.

    Raised by clients when the server reports a command failure; *not* a
    :class:`ProtocolError`, which signals malformed framing.
    """


Frame = Union[SimpleString, bytes, int, _Nil, list, WireError]


def encode_command(args: Sequence[bytes | str]) -> bytes:
    """Encode a request: an array of bulk strings; a ``str`` argument is
    sent as its :func:`~repro.kv.interface.encode_key` bytes."""
    if not args:
        raise ProtocolError("cannot encode an empty command")
    parts = [b"*%d\r\n" % len(args)]
    for arg in args:
        data = encode_key(arg) if isinstance(arg, str) else arg
        parts.append(b"$%d\r\n" % len(data))
        parts.append(data)
        parts.append(_CRLF)
    return b"".join(parts)


def encode_simple(text: str) -> bytes:
    return b"+" + text.encode("utf-8") + _CRLF


def encode_error(message: str) -> bytes:
    return b"-" + message.replace("\r", " ").replace("\n", " ").encode("utf-8") + _CRLF


def encode_integer(value: int) -> bytes:
    return b":%d\r\n" % value


def encode_bulk(data: bytes) -> bytes:
    return b"$%d\r\n" % len(data) + data + _CRLF


def encode_nil() -> bytes:
    return b"$-1\r\n"


def encode_array(frames: Sequence[bytes]) -> bytes:
    """Encode an array response from already-encoded member frames."""
    return b"*%d\r\n" % len(frames) + b"".join(frames)


def encode_epoch(epoch: int) -> bytes:
    """Encode a topology-epoch header; prepend it to an encoded reply."""
    if epoch < 0:
        raise ProtocolError(f"topology epoch must be non-negative, got {epoch}")
    return b"^%d\r\n" % epoch


class FrameReader:
    """Parses protocol frames from a binary file-like object.

    The file is expected to be buffered (e.g. ``socket.makefile("rb")``).
    ``read_frame`` returns a decoded frame or ``None`` on clean EOF at a
    frame boundary; EOF mid-frame raises :class:`ProtocolError`.
    """

    def __init__(self, stream: BinaryIO) -> None:
        self._stream = stream
        #: Most recent topology epoch piggybacked by the server on a reply
        #: (``^<epoch>\r\n`` header), or ``None`` if none seen yet.  Updated
        #: as a side effect of :meth:`read_frame`; cluster-aware clients
        #: compare it against their routing table's epoch to detect
        #: staleness (see :mod:`repro.cluster`).
        self.last_epoch: int | None = None

    # ------------------------------------------------------------------
    def _read_line(self, *, allow_eof: bool) -> bytes | None:
        line = self._stream.readline()
        if not line:
            if allow_eof:
                return None
            raise ProtocolError("connection closed mid-frame")
        if not line.endswith(_CRLF):
            raise ProtocolError(f"line not CRLF-terminated: {line[:40]!r}")
        return line[:-2]

    def _read_exact(self, count: int) -> bytes:
        data = self._stream.read(count)
        if data is None or len(data) != count:
            raise ProtocolError("connection closed mid-bulk-string")
        return data

    @staticmethod
    def _parse_int(raw: bytes, what: str) -> int:
        try:
            return int(raw)
        except ValueError:
            raise ProtocolError(f"invalid {what}: {raw[:40]!r}") from None

    # ------------------------------------------------------------------
    def read_frame(self, *, allow_eof: bool = True) -> Frame | None:
        """Read one frame; ``None`` on clean EOF (if *allow_eof*)."""
        line = self._read_line(allow_eof=allow_eof)
        if line is None:
            return None
        if not line:
            raise ProtocolError("empty frame header")
        marker, body = line[:1], line[1:]
        if marker == b"+":
            return SimpleString(body.decode("utf-8", errors="replace"))
        if marker == b"-":
            return WireError(body.decode("utf-8", errors="replace"))
        if marker == b":":
            return self._parse_int(body, "integer")
        if marker == b"$":
            length = self._parse_int(body, "bulk length")
            if length == -1:
                return NIL
            if length < 0 or length > _MAX_BULK:
                raise ProtocolError(f"unreasonable bulk length {length}")
            data = self._read_exact(length)
            if self._read_exact(2) != _CRLF:
                raise ProtocolError("bulk string not CRLF-terminated")
            return data
        if marker == b"*":
            count = self._parse_int(body, "array length")
            if count < 0 or count > 1_000_000:
                raise ProtocolError(f"unreasonable array length {count}")
            return [self.read_frame(allow_eof=False) for _ in range(count)]
        if marker == b"^":
            # Topology-epoch header: record it and return the reply frame
            # that follows (the header never stands alone).
            epoch = self._parse_int(body, "topology epoch")
            if epoch < 0:
                raise ProtocolError(f"negative topology epoch {epoch}")
            self.last_epoch = epoch
            return self.read_frame(allow_eof=False)
        raise ProtocolError(f"unknown frame marker {marker!r}")


def _parse_length(line: bytes, what: str) -> int:
    try:
        return int(line)
    except ValueError:
        raise ProtocolError(f"invalid {what}: {line[:40]!r}") from None


def _parse_command(
    buffer: "bytes | bytearray", cursor: int, argc: int, args: "list[bytes]"
) -> "tuple[bool, int, int]":
    """The one request-parsing routine: resume at *cursor* with *argc*
    announced arguments (0 = array header not read yet) of which *args*
    are already copied out; appends to *args* and returns
    ``(complete, cursor, argc)``.  Bytes before the returned cursor are
    consumed.  Malformed input raises :class:`~repro.errors.ProtocolError`
    immediately -- a bad prefix can never become a good request."""
    if not argc:
        end = buffer.find(_CRLF, cursor)
        if end < 0:
            if len(buffer) - cursor > _MAX_HEADER:
                raise ProtocolError("request header line too long")
            return False, cursor, 0
        line = bytes(buffer[cursor:end])
        if not line.startswith(b"*"):
            raise ProtocolError(f"request must be an array, got {line[:40]!r}")
        argc = _parse_length(line[1:], "array length")
        if argc <= 0 or argc > 1_000_000:
            raise ProtocolError(f"unreasonable request array length {argc}")
        cursor = end + 2
    for _ in range(argc - len(args)):
        end = buffer.find(_CRLF, cursor)
        if end < 0:
            if len(buffer) - cursor > _MAX_HEADER:
                raise ProtocolError("bulk length line too long")
            return False, cursor, argc
        line = bytes(buffer[cursor:end])
        if not line.startswith(b"$"):
            raise ProtocolError("request array members must be bulk strings")
        length = _parse_length(line[1:], "bulk length")
        if length < 0 or length > _MAX_BULK:
            raise ProtocolError(f"unreasonable bulk length {length}")
        start = end + 2
        if len(buffer) < start + length + 2:
            return False, cursor, argc
        if bytes(buffer[start + length:start + length + 2]) != _CRLF:
            raise ProtocolError("bulk string not CRLF-terminated")
        args.append(bytes(buffer[start:start + length]))
        cursor = start + length + 2
    return True, cursor, argc


class CommandParser:
    """Resumable request parser: one command's progress survives short reads.

    Neither serving engine blocks mid-frame: each accumulates socket reads
    into a buffer and asks for every complete request after each read
    (:meth:`repro.net.server.StoreServer.serve_burst`).  A large request
    (a 500-pair ``MSET`` is ~520 KB) arrives over many reads; the parser
    keeps how many arguments the array announced and the ones already
    copied out, so every argument is sliced once however the bytes were
    split -- re-parsing from the command's first byte after every read is
    quadratic in the command size.
    """

    __slots__ = ("_argc", "_args")

    def __init__(self) -> None:
        self._argc = 0
        self._args: list[bytes] = []

    def feed(
        self, buffer: "bytes | bytearray", pos: int = 0
    ) -> "tuple[list[bytes] | None, int]":
        """Continue the current request at *pos* of *buffer*.

        Returns ``(args, next_pos)`` once a whole request (an array of bulk
        strings) has been seen; the parser is then ready for the next one.
        While the data so far is a valid prefix of a request it returns
        ``(None, resume_pos)``: everything before ``resume_pos`` is consumed
        (the caller may drop it) and the next call must pass the position
        those bytes moved to.  Raises :class:`~repro.errors.ProtocolError`
        on malformed input.
        """
        args = self._args
        complete, cursor, argc = _parse_command(buffer, pos, self._argc, args)
        if complete:
            self._argc, self._args = 0, []
            return args, cursor
        self._argc = argc
        return None, cursor


def try_parse_command(buffer: "bytes | bytearray", pos: int = 0):
    """Try to parse one whole request starting at *pos* of *buffer*.

    The one-shot form of :meth:`CommandParser.feed`: returns
    ``(args, next_pos)`` when a complete request lies in ``buffer[pos:]``,
    ``None`` when the data so far is a valid prefix of one (no progress is
    kept), and raises :class:`~repro.errors.ProtocolError` on malformed
    input.
    """
    args: list[bytes] = []
    complete, cursor, _argc = _parse_command(buffer, pos, 0, args)
    return (args, cursor) if complete else None
