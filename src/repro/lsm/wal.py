"""Write-ahead log: the durability backbone of the LSM engine.

Every mutation (put or delete) is appended here *before* it is applied to
the in-memory memtable, so an acknowledged write survives a crash: on the
next open the log is replayed into a fresh memtable.  The log is the only
file the engine ever appends to in place; SSTables are immutable once
written.

The framed log (little-endian, see ``docs/lsm.md``) -- the one framing
under this file and the MANIFEST (:func:`encode_frame`,
:func:`scan_frames`, :func:`truncate_torn_tail`)::

    +----------+----------+--------------------------------------+
    | crc32 u32| len  u32 | payload (len bytes)                  |
    +----------+----------+--------------------------------------+
    WAL payload = op u8 | key_len u32 | key bytes | value bytes

``op`` is 0 for a put and 1 for a delete (deletes carry no value bytes).
The CRC covers the payload only, so a torn header, a torn payload, and a
bit-flipped payload are all detected the same way: the record fails its
frame check and replay stops there.

Torn-tail recovery
------------------
A crash mid-append leaves a prefix of a record at the end of the file.
:func:`WriteAheadLog.replay` reads records until the first frame that is
incomplete or fails its CRC, returns every record before it plus the byte
offset of the valid prefix, and flags whether anything was discarded.  The
store truncates the file back to that offset on open, which is exactly the
set of writes that were ever acknowledged (an append returns only after
the full frame is written).

Group commit
------------
:class:`CommitPipeline` amortizes the per-append ``write``/``fsync`` cost
across concurrent writers, LevelDB/RocksDB-style: writers enqueue their
framed record and block; the first writer to find no leader *becomes* the
leader (no dedicated thread), takes the queue's head up to the batch
bounds -- whatever is queued at that moment; it never waits for more
writers -- performs **one** batched write and **one** sync for every
frame, runs each waiter's apply callback in enqueue order, and wakes
everyone.  It then hands leadership to the oldest writer still queued
and returns, so a writer's acknowledgement waits for its own batch's
sync, never for the batches queued behind it.  N concurrent
``fsync=True`` writers pay ~one disk sync per batch instead of one each.

Sync-failure poisoning
----------------------
A failed ``fsync`` leaves the on-disk state unknowable: the frame may
already be durable even though the caller observes an error, and on Linux
a *retried* fsync can falsely succeed because the kernel clears the
dirty-page error when it is first reported ("fsyncgate").  The log
therefore never retries a sync: after any write/sync error the segment is
**poisoned** -- the un-acknowledged suffix is truncated away best-effort
so recovery cannot resurrect a write whose caller saw a failure, and
every subsequent append raises :class:`~repro.errors.WalPoisonedError`.
Under group commit this is load-bearing: one fsync covers many writers,
so a swallowed sync error would corrupt many acknowledgements at once.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from collections import deque
from pathlib import Path
from typing import Any, Callable, NamedTuple

from ..errors import ConfigurationError, StoreClosedError, WalPoisonedError

__all__ = [
    "OP_PUT",
    "OP_DELETE",
    "WalRecord",
    "WalReplay",
    "WriteAheadLog",
    "CommitPipeline",
    "encode_frame",
    "scan_frames",
    "truncate_torn_tail",
]

#: Operation tags inside a WAL payload.
OP_PUT = 0
OP_DELETE = 1

_HEADER = struct.Struct("<II")  # crc32, payload length
_PREFIX = struct.Struct("<BI")  # op, key length

#: A scan reads the log through a bounded buffer in chunks of this many
#: bytes, so recovering a multi-gigabyte WAL uses constant memory instead
#: of slurping the whole file (peak buffer = one chunk + one frame).
REPLAY_CHUNK_BYTES = 64 * 1024

# Indirection so tests can observe replay's read pattern (chunked, never
# whole-file) by swapping in a recording opener.
_open = open

# Indirection so tests and the crash-sim gate can inject storage faults --
# a failing fsync, a power-loss snapshot taken mid-sync -- without
# patching the real ``os`` module for everyone.  Group commit makes one
# sync cover many writers, so the sims need to fail or freeze exactly
# this call.
_fsync = os.fsync


class WalRecord(NamedTuple):
    """One replayed mutation."""

    op: int
    key: bytes
    value: bytes


class WalReplay(NamedTuple):
    """Everything :meth:`WriteAheadLog.replay` learned about a log file."""

    records: list[WalRecord]
    valid_length: int      # byte offset of the last complete record's end
    torn: bool             # True when trailing bytes had to be discarded
    discarded_bytes: int   # how many trailing bytes were invalid


def encode_frame(payload: bytes) -> bytes:
    """Frame *payload* as an append-ready byte string."""
    return _HEADER.pack(zlib.crc32(payload), len(payload)) + payload


def encode_record(op: int, key: bytes, value: bytes = b"") -> bytes:
    """Frame one mutation as an append-ready byte string."""
    return encode_frame(_PREFIX.pack(op, len(key)) + key + value)


def _decode_record(payload: bytes) -> WalRecord:
    if len(payload) < _PREFIX.size:
        raise ValueError("record shorter than its prefix")
    op, key_len = _PREFIX.unpack_from(payload, 0)
    value_at = _PREFIX.size + key_len
    if op not in (OP_PUT, OP_DELETE) or value_at > len(payload):
        raise ValueError("unknown op, or key longer than the record")
    return WalRecord(op, payload[_PREFIX.size : value_at], payload[value_at:])


def scan_frames(
    path: str | os.PathLike[str],
    decode: Callable[[bytes], Any],
    *,
    chunk_size: int = REPLAY_CHUNK_BYTES,
) -> tuple[list[Any], int, bool, int]:
    """Decode every intact frame's payload, stopping at a torn tail: the
    first frame that is incomplete, fails its CRC, or that *decode* rejects
    with ``ValueError`` (the CRC collided with garbage), and all after it.
    Streams the file (*chunk_size* bytes per read), so memory is O(chunk +
    largest frame), never O(log size) -- a recovery that slurped a multi-GB
    WAL whole was itself a crash risk.  Returns ``(decoded, valid_length,
    torn, discarded_bytes)``, the fields of a :class:`WalReplay`."""
    decoded: list[Any] = []
    total = os.stat(path).st_size
    buffer = bytearray()
    offset = 0  # file offset of the end of the last intact frame
    with _open(path, "rb") as handle:

        def fill(needed: int) -> bool:
            # Whole chunks only: the buffer peaks at needed + chunk_size and
            # the syscall count is O(file size / chunk), not O(records).
            while len(buffer) < needed:
                chunk = handle.read(chunk_size)
                if not chunk:
                    return False  # early EOF
                buffer.extend(chunk)
            return True

        while fill(_HEADER.size):  # else: torn header (or clean EOF)
            crc, length = _HEADER.unpack_from(buffer, 0)
            frame_size = _HEADER.size + length
            if offset + frame_size > total:
                break  # frame claims more bytes than the file holds
            if not fill(frame_size):
                break  # torn payload
            payload = bytes(buffer[_HEADER.size : frame_size])
            if zlib.crc32(payload) != crc:
                break  # corrupt frame: treat the rest as a torn tail
            try:
                decoded.append(decode(payload))
            except ValueError:
                break
            del buffer[:frame_size]
            offset += frame_size
    return decoded, offset, offset != total, total - offset


def truncate_torn_tail(path: str | os.PathLike[str], replay: Any) -> None:
    """Truncate *path* back to ``replay.valid_length`` if ``replay.torn``
    (*replay*: a :class:`WalReplay` or a ``ManifestReplay``)."""
    if replay.torn:
        with open(path, "rb+") as handle:
            handle.truncate(replay.valid_length)


class WriteAheadLog:
    """Append-only CRC-framed log over one file.

    Not thread-safe on its own; the owning store serializes appends
    (under group commit, through a single :class:`CommitPipeline`
    leader at a time).  The file is opened unbuffered: a batch is one
    ``write`` syscall, and a sync failure cannot leave stale bytes in a
    user-space buffer that a later flush would silently replay past the
    poisoning truncation.
    """

    def __init__(self, path: str | os.PathLike[str], *, fsync: bool = False) -> None:
        self.path = Path(path)
        self._fsync = fsync
        self._file = open(self.path, "ab", buffering=0)
        self._size = os.fstat(self._file.fileno()).st_size
        self._poison_cause: BaseException | None = None

    # ------------------------------------------------------------------
    @property
    def size_bytes(self) -> int:
        """Bytes currently in the log (header overhead included)."""
        return self._size

    @property
    def closed(self) -> bool:
        return self._file.closed

    @property
    def poisoned(self) -> bool:
        """True once a write/sync failure has disabled this segment."""
        return self._poison_cause is not None

    # ------------------------------------------------------------------
    def write_batch(self, frames: list[bytes]) -> int:
        """Append *frames* with one write and (if configured) one fsync.

        Returns the bytes appended.  The whole batch is acknowledged
        together: nothing is acknowledged until every frame has reached
        the OS (and, with ``fsync=True``, the disk).  On any error the
        segment is poisoned -- the failed suffix is truncated away
        best-effort and this call plus every later append raises
        :class:`WalPoisonedError`.
        """
        self._check_appendable()
        blob = frames[0] if len(frames) == 1 else b"".join(frames)
        acked = self._size
        try:
            written = self._file.write(blob)
            if written < len(blob):  # partial write: push the rest through
                view = memoryview(blob)
                while written < len(blob):
                    written += self._file.write(view[written:])
            if self._fsync:
                _fsync(self._file.fileno())
        except Exception as exc:
            self._poison(exc, acked)
            raise WalPoisonedError(
                f"WAL {self.path} failed to persist a batch of "
                f"{len(frames)} frame(s) ({exc!r}); segment poisoned"
            ) from exc
        self._size = acked + len(blob)
        return len(blob)

    def append(self, op: int, key: bytes, value: bytes = b"") -> int:
        """Durably append one mutation; returns the bytes written.

        The write is acknowledged only after the frame reaches the OS
        (and, with ``fsync=True``, the disk).
        """
        return self.write_batch([encode_record(op, key, value)])

    def append_put(self, key: bytes, value: bytes) -> int:
        return self.append(OP_PUT, key, value)

    def append_delete(self, key: bytes) -> int:
        return self.append(OP_DELETE, key)

    # ------------------------------------------------------------------
    def _check_appendable(self) -> None:
        if self._file.closed:
            raise StoreClosedError(f"WAL {self.path} is closed")
        if self._poison_cause is not None:
            raise WalPoisonedError(
                f"WAL {self.path} is poisoned by an earlier sync failure "
                f"({self._poison_cause!r}); no further appends are accepted"
            )

    def _poison(self, cause: BaseException, acked_size: int) -> None:
        """Disable the segment and cut the un-acknowledged suffix.

        The truncation is best-effort: it stops recovery from replaying a
        frame whose writer was told it failed.  When even the truncate
        fails, accounting falls back to the file's real size so seal
        thresholds and ``stats()`` stay honest (the suffix then survives
        on disk, which is why the store must be failed rather than
        resumed -- only a reopen re-establishes a trustworthy state).
        """
        self._poison_cause = cause
        try:
            os.ftruncate(self._file.fileno(), acked_size)
            self._size = acked_size
        except OSError:
            try:
                self._size = os.fstat(self._file.fileno()).st_size
            except OSError:
                pass  # keep the last known count; reopen re-stats anyway

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()

    def unlink(self) -> None:
        """Close and delete the log file (its memtable has been flushed)."""
        self.close()
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass

    # ------------------------------------------------------------------
    @staticmethod
    def replay(
        path: str | os.PathLike[str], *, chunk_size: int = REPLAY_CHUNK_BYTES
    ) -> WalReplay:
        """Read every intact record from *path*, stopping at a torn tail."""
        return WalReplay(*scan_frames(path, _decode_record, chunk_size=chunk_size))

    #: Truncate a log back to its valid prefix after a torn replay.
    repair = staticmethod(truncate_torn_tail)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return f"<WriteAheadLog path={str(self.path)!r} size={self._size}>"


class _Ticket:
    """One queued commit: its framed records (one for a ``put``, a chunk
    for ``put_many``, none for a barrier), its visibility callback, the
    gate its writer is parked on, and whether that writer was woken to
    lead rather than because its batch resolved.

    The gate is a raw pre-acquired lock, not a ``threading.Event``: a
    follower blocks on ``gate.acquire()`` and the leader ``release``\\ s
    it -- one C-level lock instead of a Condition object per write,
    which matters on a path where python-side work bounds throughput.
    A gate is released exactly once: when the ticket's batch resolved,
    or with ``lead`` set when the previous leader handed over.  A writer
    that found no leader gets no gate at all: its ticket heads the queue,
    so the batch it leads resolves it.  A ticket rides the first batch
    whose leader finds it queued (within the batch bounds); no leader
    ever waits for a ticket to arrive.
    """

    __slots__ = ("frames", "size", "apply", "gate", "error", "lead")

    def __init__(self, frames: list[bytes], apply: "Callable[[], None] | None") -> None:
        self.frames = frames
        self.size = sum(map(len, frames))
        self.apply = apply
        self.gate: threading.Lock | None = None
        self.error: BaseException | None = None
        self.lead = False


class CommitPipeline:
    """Group commit: concurrent writers share one durable sync per batch.

    Writers call :meth:`submit` with an encoded frame (or a list of them:
    one multi-record ticket, committed and applied as a unit); the first
    writer to find no leader becomes the leader (Rocks/LevelDB-style -- no
    dedicated commit thread).  A leader commits **one** batch: its own
    ticket plus the tickets already queued behind it when it takes the
    head, up to ``max_batch_records``/``max_batch_bytes``.  It never
    waits for writers that are not queued, so the write path has no
    timed wait.  It hands every frame of the batch to *commit* (one
    write + one sync), runs each waiter's ``apply`` callback **in
    enqueue order**, wakes them and runs the end-of-batch hook.  Then it
    hands leadership to the oldest queued writer -- whose ticket heads
    the next batch -- and returns, or, with the queue empty, abdicates
    (LevelDB's write-queue rule).  A writer's ``submit`` therefore
    waits for one sync, its own batch's; the next leader's sync overlaps
    whatever the previous one does with its acknowledgement.  Batches
    still commit strictly in queue order, one leader at a time, and that
    order guarantee is what lets a store equate WAL order with
    visibility order: replaying the log after a crash reconstructs
    exactly the state the appliers built.

    Error propagation is per waiter: a failed *commit* fails every
    waiter whose frame was in that batch (and, because a poisoned WAL
    rejects the next batch too, everyone queued behind it), while a
    failed ``apply`` fails only its own waiter -- the rest of the batch
    is durable and acknowledged normally.

    A frame of ``b""`` is a **barrier**: it costs no I/O but its apply
    runs in queue order, strictly after every batch submitted before it.
    A barrier always commits **alone** -- batch collection cuts at a
    barrier instead of spanning it -- because the owning store seals
    memtables (swapping the active memtable *and* WAL segment) inside a
    barrier's apply: were data frames batched behind a barrier, they
    would be durable only in the pre-seal WAL segment while their
    applies landed in the post-seal memtable, and flushing the sealed
    memtable would unlink the only durable copy of acknowledged writes.
    For the same reason size-triggered seals are deferred to batch
    boundaries: *on_batch_applied* runs after a batch's last apply, so a
    seal can never split a committed batch across two WAL segments.
    """

    def __init__(
        self,
        commit: Callable[[list[bytes]], None],
        *,
        max_batch_records: int = 128,
        max_batch_bytes: int = 1 << 20,
        on_batch_applied: "Callable[[], None] | None" = None,
    ) -> None:
        """:param commit: called by the leader with every non-empty frame
            of one batch, in enqueue order; must persist all of them (or
            raise) before returning.
        :param max_batch_records: most frames a single batch may carry.
        :param max_batch_bytes: byte bound per batch (a single oversized
            ticket still commits, alone).
        :param on_batch_applied: called by the leader after the last
            apply of each successfully committed batch -- the one point
            where the owning store may seal (swap memtable + WAL)
            without splitting a committed batch across segments.  An
            exception here is re-raised from the leader's own
            :meth:`submit` once leadership has been handed on (or
            released), so it can never strand queued waiters.
        """
        if max_batch_records < 1:
            raise ConfigurationError("max_batch_records must be positive")
        if max_batch_bytes < 1:
            raise ConfigurationError("max_batch_bytes must be positive")
        self._commit = commit
        self._on_batch_applied = on_batch_applied
        self._max_records = max_batch_records
        self._max_bytes = max_batch_bytes
        self._mutex = threading.Lock()
        self._drained = threading.Condition(self._mutex)
        self._queue: deque[_Ticket] = deque()
        self._leading = False
        self._shutdown = False
        self._batches = 0
        self._committed = 0
        self._largest_batch = 0
        # Test seam: called in the submitting thread right after its
        # ticket is enqueued (before it blocks), so tests can build
        # multi-frame batches deterministically with zero sleeps.
        self._enqueue_hook: Callable[[], None] | None = None

    # ------------------------------------------------------------------
    def submit(
        self, frame: "bytes | list[bytes]", apply: "Callable[[], None] | None" = None
    ) -> None:
        """Enqueue one frame and block until it is durable and applied.

        A list of frames is one ticket: every frame lands in the same
        batch (one write, one sync) and *apply* runs once for all of them.

        Raises whatever the batch commit raised (every waiter of the
        batch sees it), or whatever this waiter's own *apply* raised, or
        :class:`~repro.errors.StoreClosedError` after :meth:`close`.
        """
        if isinstance(frame, bytes):
            frame = [frame] if frame else []
        ticket = _Ticket(frame, apply)
        with self._mutex:
            if self._shutdown:
                raise StoreClosedError("commit pipeline is closed")
            self._queue.append(ticket)
            lead = not self._leading
            if lead:
                self._leading = True
            else:
                # The gate must exist before the mutex drops: the leader
                # pops tickets under this mutex, so once we release it a
                # resolved ticket with no gate would strand us.
                gate = threading.Lock()
                gate.acquire()
                ticket.gate = gate
        if self._enqueue_hook is not None:
            self._enqueue_hook()
        if not lead:
            ticket.gate.acquire()  # parked until resolved or handed the lead
            lead = ticket.lead
        if lead:
            # This ticket heads the queue, so the one batch _lead commits
            # resolves it.
            self._lead()
        if ticket.error is not None:
            raise ticket.error

    def _lead(self) -> None:
        """Commit the batch at the head of the queue, then hand off.

        The caller's ticket heads the queue; the batch is it plus the
        tickets queued behind it right now, within the bounds.  After the
        batch is applied, its waiters woken and the end-of-batch hook run,
        leadership passes to the oldest queued ticket (its writer leads
        the next batch from its own ``submit``) or, with the queue empty,
        is released.
        """
        with self._mutex:
            batch = [self._queue.popleft()]
            size = batch[0].size
            records = len(batch[0].frames)
            # A barrier (empty frame) commits alone: its apply may seal --
            # swap the memtable *and* the active WAL -- and a data frame
            # batched behind it would be durable only in the pre-seal
            # segment while its apply landed in the post-seal memtable
            # (flushing the sealed memtable then unlinks the acknowledged
            # write's only durable copy).
            if records:
                while (
                    self._queue
                    and self._queue[0].frames  # never batch across a barrier
                    and records + len(self._queue[0].frames) <= self._max_records
                    and size + self._queue[0].size <= self._max_bytes
                ):
                    ticket = self._queue.popleft()
                    batch.append(ticket)
                    size += ticket.size
                    records += len(ticket.frames)
            self._batches += 1
            self._committed += records or 1  # a barrier counts as one
            self._largest_batch = max(self._largest_batch, records or 1)
        frames = [frame for ticket in batch for frame in ticket.frames]
        error: BaseException | None = None
        if frames:
            try:
                self._commit(frames)
            except BaseException as exc:  # noqa: BLE001 - fanned out per waiter
                error = exc
        for ticket in batch:
            if error is not None:
                ticket.error = error
            elif ticket.apply is not None:
                try:
                    ticket.apply()
                except BaseException as exc:  # noqa: BLE001
                    ticket.error = exc
            if ticket.gate is not None:
                ticket.gate.release()
        hook_error: BaseException | None = None
        if error is None and self._on_batch_applied is not None:
            # End-of-batch hook: the store's size-triggered seal runs
            # here, at a batch boundary and before the next leader is
            # woken, never between a batch's applies.  A failure is
            # raised from this leader's submit only after leadership has
            # moved on, so waiters are never stranded.
            try:
                self._on_batch_applied()
            except BaseException as exc:  # noqa: BLE001
                hook_error = exc
        with self._mutex:
            if self._queue:
                successor = self._queue[0]
                successor.lead = True
                successor.gate.release()  # type: ignore[union-attr]
            else:
                self._leading = False
                if self._shutdown:  # only close() ever waits on this
                    self._drained.notify_all()
        if hook_error is not None:
            raise hook_error

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drain-or-reject shutdown; nothing queued is silently dropped.

        Everything already enqueued is committed (its waiter gets a real
        acknowledgement, or the real commit error -- e.g. a poisoned
        WAL's rejection), any later :meth:`submit` raises
        :class:`~repro.errors.StoreClosedError`, and this call returns
        only once the last in-flight batch has resolved.
        """
        with self._mutex:
            self._shutdown = True
            while self._leading or self._queue:
                self._drained.wait()

    def stats(self) -> dict[str, int]:
        """Batch accounting (barriers included) for ``store.stats()``."""
        with self._mutex:
            return {
                "batches": self._batches,
                "committed": self._committed,
                "largest_batch": self._largest_batch,
            }

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"<CommitPipeline batches={self._batches} "
            f"committed={self._committed} queued={len(self._queue)}>"
        )
