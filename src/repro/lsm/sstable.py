"""Immutable sorted-string tables: the on-disk runs of the LSM engine.

An SSTable is written once (by a memtable flush or a compaction merge),
read many times, and never modified; deletion is the only mutation.  That
immutability is what makes the engine's concurrency cheap: readers need no
locks against writers, only a stable file descriptor.

File layout (little-endian; diagrams in ``docs/lsm.md``)::

    +--------------------------------------------------------------+
    | magic "LSMSST01"                                             |
    | data block:  record*                                         |
    |   record = key_len u32 | value_len u32 | key | value         |
    |            (value_len == 0xFFFFFFFF marks a tombstone)       |
    | sparse index: count u32, then every Nth record's             |
    |   key_len u32 | key | file_offset u64                        |
    | bloom block: BloomFilter.to_bytes() payload                  |
    | footer: index_off u64 | bloom_off u64 | record_count u64     |
    |         | magic "LSMSST01"                                   |
    +--------------------------------------------------------------+

Records are sorted by key bytes.  The sparse index holds one entry per
``index_interval`` records (plus always the first), so a point read seeks
to the greatest indexed key <= target and scans at most ``index_interval``
records.  The per-table Bloom filter (reused from
:mod:`repro.caching.bloom`) lets the read path skip tables that definitely
do not hold the key -- the difference between O(tables) file probes per
miss and near-zero.

The run of records between two adjacent index entries is the table's
**block**: the unit of disk I/O.  Every block read is one ``pread`` (no
shared file position, so concurrent readers never contend); the OS page
cache keeps hot blocks in memory, so the engine keeps no block cache of
its own.  A block stays the bytes ``pread`` returned: ``get`` walks its
record headers in place and copies out only the value it returns, and
the scans decode records one at a time through :func:`_records`.

A table's descriptor closes when the table is closed explicitly or,
failing that, when its last reference is dropped: compaction unlinks a
retired table's file but leaves the descriptor to whichever snapshot
reader still holds the table, and the descriptor goes with the reader.
"""

from __future__ import annotations

import os
import struct
import tempfile
import weakref
from bisect import bisect_right
from pathlib import Path
from typing import Iterable, Iterator

from ..caching.bloom import BloomFilter, key_hash
from ..errors import DataStoreError
from ..fsutil import fsync_dir
from .memtable import TOMBSTONE, Tombstone

__all__ = ["MISSING", "SSTable", "write_sstable"]

_MAGIC = b"LSMSST01"
_U32 = struct.Struct("<I")
_RECORD = struct.Struct("<II")            # key_len, value_len
_INDEX_ENTRY_TAIL = struct.Struct("<Q")   # file offset
_FOOTER = struct.Struct("<QQQ8s")         # index_off, bloom_off, records, magic
_TOMBSTONE_LEN = 0xFFFFFFFF
#: write_sstable joins encoded records up to about this many bytes per
#: ``write``: few syscalls without holding a second copy of the table.
_WRITE_BUFFER_BYTES = 64 * 1024


class _Missing:
    """Singleton: the table holds no entry (live or tombstone) for a key."""

    _instance: "_Missing | None" = None

    def __new__(cls) -> "_Missing":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "<MISSING>"


#: Returned by :meth:`SSTable.get` when the key is not in the table at all.
MISSING = _Missing()


def _records(
    block: bytes, values: bool = True
) -> Iterator[tuple[bytes, "bytes | Tombstone"]]:
    """Decode a raw block's records in key order; ``values=False`` (key
    scans) yields ``b""`` for live values instead of slicing them out."""
    offset, limit = 0, len(block)
    while offset < limit:
        key_len, value_len = _RECORD.unpack_from(block, offset)
        offset += _RECORD.size
        key = block[offset : offset + key_len]
        offset += key_len
        if value_len == _TOMBSTONE_LEN:
            yield key, TOMBSTONE
        else:
            yield key, block[offset : offset + value_len] if values else b""
            offset += value_len


def write_sstable(
    path: str | os.PathLike[str],
    entries: Iterable[tuple[bytes, "bytes | Tombstone"]],
    *,
    index_interval: int = 16,
    bloom_fp_rate: float = 0.01,
    fsync: bool = False,
) -> Path:
    """Write *entries* (sorted by key, tombstones included) as one SSTable.

    One streaming pass over any iterable: besides the ~64 KiB write
    buffer, only the keys are held -- the Bloom block follows the data,
    so the filter is sized from the count written and filled afterwards.
    The table is written to a temp file in the same directory and renamed
    into place, so a crash mid-write never leaves a half table where the
    engine would look for one.  Returns the final path.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".sst.tmp")
    try:
        with os.fdopen(fd, "wb") as out:
            out.write(_MAGIC)
            offset = written = len(_MAGIC)
            index: list[tuple[bytes, int]] = []
            keys: list[bytes] = []
            pack, keep = _RECORD.pack, keys.append
            pieces: list[bytes] = []  # header, key[, value] of unwritten records
            for key, value in entries:
                if keys and key <= keys[-1]:
                    raise DataStoreError("SSTable entries must be strictly sorted by key")
                if len(keys) % index_interval == 0:
                    index.append((key, offset))
                keep(key)
                if isinstance(value, Tombstone):
                    pieces += (pack(len(key), _TOMBSTONE_LEN), key)
                    offset += _RECORD.size + len(key)
                else:
                    pieces += (pack(len(key), len(value)), key, value)
                    offset += _RECORD.size + len(key) + len(value)
                if offset - written >= _WRITE_BUFFER_BYTES:
                    out.write(b"".join(pieces))
                    pieces.clear()
                    written = offset
            out.write(b"".join(pieces))
            index_off = offset
            out.write(_U32.pack(len(index)))
            for key, record_offset in index:
                out.write(_U32.pack(len(key)) + key + _INDEX_ENTRY_TAIL.pack(record_offset))
            bloom = BloomFilter(max(1, len(keys)), bloom_fp_rate)
            for key in keys:
                bloom.add(key)
            bloom_off = out.tell()
            out.write(bloom.to_bytes())
            out.write(_FOOTER.pack(index_off, bloom_off, len(keys), _MAGIC))
            out.flush()
            if fsync:
                os.fsync(out.fileno())
        os.replace(tmp_name, path)
        if fsync:
            # fsyncing the file makes its *contents* durable; only fsyncing
            # the parent directory makes the rename itself survive power
            # loss (POSIX durability contract for directory entries).
            fsync_dir(path.parent)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


class SSTable:
    """Read-only view over one on-disk table.

    The sparse index and Bloom filter live in memory; record data is
    fetched block-at-a-time with ``pread`` (no shared file position, so
    concurrent reads need no lock).  The descriptor is closed by
    :meth:`close` or, at the latest, when the table is garbage-collected.
    """

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = Path(path)
        self._fd = os.open(self.path, os.O_RDONLY)
        self._close_fd = weakref.finalize(self, os.close, self._fd)
        try:
            self.size_bytes = os.fstat(self._fd).st_size
            if self.size_bytes < len(_MAGIC) + _FOOTER.size:
                raise DataStoreError(f"SSTable {self.path} is truncated")
            footer = os.pread(self._fd, _FOOTER.size, self.size_bytes - _FOOTER.size)
            index_off, bloom_off, self.record_count, magic = _FOOTER.unpack(footer)
            head = os.pread(self._fd, len(_MAGIC), 0)
            if magic != _MAGIC or head != _MAGIC:
                raise DataStoreError(f"{self.path} is not an SSTable (bad magic)")
            index_blob = os.pread(self._fd, bloom_off - index_off, index_off)
            self._index_keys, self._index_offsets = self._parse_index(index_blob)
            bloom_blob = os.pread(
                self._fd, self.size_bytes - _FOOTER.size - bloom_off, bloom_off
            )
            self.bloom = BloomFilter.from_bytes(bloom_blob)
            self._data_end = index_off
        except BaseException:
            self.close()
            raise

    @staticmethod
    def _parse_index(blob: bytes) -> tuple[list[bytes], list[int]]:
        (count,) = _U32.unpack_from(blob, 0)
        keys: list[bytes] = []
        offsets: list[int] = []
        cursor = _U32.size
        for _ in range(count):
            (key_len,) = _U32.unpack_from(blob, cursor)
            cursor += _U32.size
            keys.append(blob[cursor : cursor + key_len])
            cursor += key_len
            (record_offset,) = _INDEX_ENTRY_TAIL.unpack_from(blob, cursor)
            cursor += _INDEX_ENTRY_TAIL.size
            offsets.append(record_offset)
        return keys, offsets

    # ------------------------------------------------------------------
    def might_contain(self, key: bytes, hashed: tuple[int, int] | None = None) -> bool:
        """Bloom gate: False means the key is definitely not in this table.
        A lookup that probes many tables passes the key's :func:`key_hash`
        pair as *hashed*, so the key is hashed once, not once per table."""
        return self.bloom.might_contain_hash(key_hash(key) if hashed is None else hashed)

    def get(self, key: bytes) -> "bytes | Tombstone | _Missing":
        """Point lookup: value bytes, :data:`TOMBSTONE`, or :data:`MISSING`.

        Walks the block's record headers in place, comparing keys, and
        stops at the first key >= *key*: only the match's value is copied.
        """
        if not self._index_keys or key < self._index_keys[0]:
            return MISSING
        block = self._block(bisect_right(self._index_keys, key) - 1)
        offset, limit, unpack = 0, len(block), _RECORD.unpack_from
        while offset < limit:
            key_len, value_len = unpack(block, offset)
            offset += _RECORD.size + key_len
            record_key = block[offset - key_len : offset]
            if record_key >= key:
                if record_key != key:
                    return MISSING
                if value_len == _TOMBSTONE_LEN:
                    return TOMBSTONE
                return block[offset : offset + value_len]
            if value_len != _TOMBSTONE_LEN:
                offset += value_len
        return MISSING

    # ------------------------------------------------------------------
    @property
    def block_count(self) -> int:
        """Number of blocks (= sparse-index entries) in the table."""
        return len(self._index_offsets)

    def _block(self, slot: int) -> bytes:
        """Raw bytes of block *slot*: one ``pread``."""
        start = self._index_offsets[slot]
        stop = (
            self._index_offsets[slot + 1]
            if slot + 1 < len(self._index_offsets)
            else self._data_end
        )
        return os.pread(self._fd, stop - start, start)

    def items(self) -> Iterator[tuple[bytes, "bytes | Tombstone"]]:
        """Every record in key order (tombstones included)."""
        for slot in range(len(self._index_offsets)):
            yield from _records(self._block(slot))

    def items_from(
        self, start: bytes, *, values: bool = True
    ) -> Iterator[tuple[bytes, "bytes | Tombstone"]]:
        """Records with ``key >= start`` in key order (sparse-index seek).
        ``values=False`` is a key scan: live values come back as ``b""``
        instead of being sliced out of the block."""
        if not self._index_keys:
            return
        first = max(0, bisect_right(self._index_keys, start) - 1)
        for slot in range(first, len(self._index_offsets)):
            for key, value in _records(self._block(slot), values):
                if key >= start:
                    yield key, value

    # ------------------------------------------------------------------
    @property
    def min_key(self) -> bytes | None:
        return self._index_keys[0] if self._index_keys else None

    def close(self) -> None:
        self._close_fd()
        self._fd = -1

    def unlink(self) -> None:
        """Close and remove the table file."""
        self.close()
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass

    def __len__(self) -> int:
        return self.record_count

    def __repr__(self) -> str:
        return (
            f"<SSTable path={self.path.name!r} records={self.record_count} "
            f"bytes={self.size_bytes}>"
        )
