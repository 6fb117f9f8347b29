r"""`LSMStore`: the log-structured merge engine behind the KV contract.

The backend lineup had a hole: :class:`~repro.kv.memory.InMemoryStore` is
fast but volatile, :class:`~repro.kv.filesystem.FileSystemStore` and
:class:`~repro.kv.sqlstore.SQLStore` are durable but pay a file create or
a SQL commit *per write*.  An LSM engine closes the gap the way real
write-optimized stores (LevelDB, RocksDB, Cassandra) do: every write is
one sequential append to a write-ahead log plus one dict update, and the
expensive work -- sorting, file layout, merging -- happens later, in
batches.

Write path (group commit, see :class:`repro.lsm.wal.CommitPipeline`)::

    put(k, v) --> encode frame --> commit pipeline (batch write + one
                  fsync per batch, leader/waiter) --> memtable
                  (visibility, applied in batch order by the leader)
                                   \-- memtable full? seal it, flush to an
                                       SSTable, delete its WAL segment

Concurrent writers share one durability sync per batch instead of one
each, and an acknowledgement still means the same thing: the record is
in the WAL (on disk with ``fsync=True``) *and* visible, in WAL order.
A failed sync poisons the WAL segment and fails the store for further
mutations -- the un-acked suffix is truncated away so recovery cannot
resurrect a write whose caller saw an error (see ``docs/lsm.md``).

Read path (newest wins, first hit returns)::

    memtable --> sealed memtables --> SSTables newest-to-oldest
                                      (per-table Bloom filter gates
                                       each probe; one pread per probed
                                       block, hot blocks served by the
                                       OS page cache)

Deletes write tombstones; compaction (size-tiered, see
:mod:`repro.lsm.compaction`) merges tables and reclaims overwritten
values and provably-dead tombstones.  The live table set is recorded in
a CRC-framed ``MANIFEST`` (:mod:`repro.lsm.manifest`): flushes and the
flush->compact table swap commit as single atomic edit frames, and
recovery trusts the manifest -- never a directory scan -- so a crash
mid-swap can neither resurrect retired tables nor load uncommitted
ones.  Crash recovery replays the WAL -- including truncating a torn
tail back to the last intact record -- so every acknowledged write
survives; the procedure and the on-disk formats are documented in
``docs/lsm.md``.

Observability: `lsm.wal.appends`, `lsm.memtable.flushes`, `lsm.sstables`
(gauge), `lsm.compactions`, `lsm.read.level_hits.<level>`, `lsm.tasks.failed`
metrics plus `lsm_flush` / `lsm_compact` / `lsm_recovery` /
`lsm_task_failed` journal events (see
``docs/observability.md``).
"""

from __future__ import annotations

import re
import threading
import time
from itertools import chain

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping

from ..caching.bloom import key_hash
from ..errors import (
    ConfigurationError,
    DataStoreError,
    KeyNotFoundError,
    StoreClosedError,
    WalPoisonedError,
)
from ..fsutil import fsync_dir
from ..kv.interface import KeyValueStore, content_version, decode_key, encode_key
from ..obs import Observability, resolve_obs
from ..serialization import Serializer, default_serializer
from .compaction import InlineScheduler, SizeTieredPolicy, merge_runs, merge_tables
from .manifest import MANIFEST_NAME, Manifest, require_tables_on_disk
from .memtable import ENTRY_OVERHEAD, Memtable, Tombstone
from .sstable import MISSING, SSTable, write_sstable
from .wal import OP_DELETE, OP_PUT, CommitPipeline, WriteAheadLog, encode_record

__all__ = ["LSMStore"]

_SST_NAME = re.compile(r"^(\d{6})-(\d{3})\.sst$")
_WAL_NAME = re.compile(r"^wal-(\d{6})\.log$")


class LSMStore(KeyValueStore):
    """Embedded log-structured merge store (WAL + memtable + SSTables)."""

    def __init__(
        self,
        root: str | Path,
        name: str = "lsm",
        *,
        serializer: Serializer | None = None,
        memtable_bytes: int = 4 * 1024 * 1024,
        index_interval: int = 16,
        bloom_fp_rate: float = 0.01,
        policy: SizeTieredPolicy | None = None,
        scheduler: Any | None = None,
        auto_compact: bool = True,
        fsync: bool = False,
        wal_batch_records: int = 128,
        wal_batch_bytes: int = 1 << 20,
        clock: Callable[[], float] | None = None,
        create: bool = True,
        obs: Observability | None = None,
    ) -> None:
        """Open (and by default create) an LSM store rooted at *root*.

        :param memtable_bytes: seal and flush the memtable beyond this
            budget (keys + values + per-entry overhead).
        :param index_interval: one sparse-index entry per this many SSTable
            records (lookup scans at most this many records after a seek).
        :param bloom_fp_rate: per-table Bloom filter false-positive rate.
        :param policy: size-tiered compaction policy (default: merge when
            a size tier holds 4 tables).
        :param scheduler: where flush/compaction work runs -- any object
            with ``submit(fn)``; defaults to
            :class:`~repro.lsm.compaction.InlineScheduler` (runs in the
            writing thread).  Use ``ManualScheduler`` in tests or
            ``BackgroundScheduler`` for true background work.
        :param auto_compact: consult the policy after every flush.
        :param fsync: fsync the WAL on every commit batch (durable
            against OS crashes, not just process crashes; slower).  Also
            makes SSTable/MANIFEST renames durable (file + parent
            directory fsync).  Group commit amortizes the sync across
            concurrent writers: N writers in flight pay ~one sync per
            batch, not one each.  A batch is whatever is queued when its
            leader takes it; no write waits for another to arrive.
        :param wal_batch_records: most records one commit batch -- and so
            one ``put_many`` chunk -- may carry (bounds how long any
            single waiter can be held).
        :param wal_batch_bytes: byte bound per commit batch and chunk.
        :param clock: monotonic clock used to time flushes/compactions for
            the journal (injectable so tests are deterministic).
        :param obs: observability bundle (metrics + journal events).
        """
        if memtable_bytes < 1:
            raise ConfigurationError("memtable_bytes must be positive")
        if index_interval < 1:
            raise ConfigurationError("index_interval must be positive")
        if wal_batch_records < 1:
            raise ConfigurationError("wal_batch_records must be positive")
        if wal_batch_bytes < 1:
            raise ConfigurationError("wal_batch_bytes must be positive")
        self.name = name
        self._root = Path(root)
        self._serializer = serializer if serializer is not None else default_serializer()
        self._memtable_bytes = memtable_bytes
        self._index_interval = index_interval
        self._bloom_fp_rate = bloom_fp_rate
        self._policy = policy if policy is not None else SizeTieredPolicy()
        self._scheduler = scheduler if scheduler is not None else InlineScheduler()
        self._owns_scheduler = scheduler is None
        self._auto_compact = auto_compact
        self._fsync = fsync
        self._chunk_bounds = (wal_batch_records, wal_batch_bytes)
        self._clock = clock if clock is not None else time.monotonic
        self.obs = resolve_obs(obs)
        self._lock = threading.RLock()
        self._closed = False
        self._closing = False
        self._close_done = threading.Event()
        self._compacting = False
        self._wal_failed = False
        self._manifest: Manifest | None = None
        self._tables: list[SSTable] = []      # oldest first
        self._immutables: list[tuple[Memtable, WriteAheadLog, int]] = []
        if create:
            self._root.mkdir(parents=True, exist_ok=True)
        elif not self._root.is_dir():
            raise DataStoreError(f"store root {self._root} does not exist")
        self._lock_handle = None
        self._acquire_dir_lock()
        try:
            self._recover()
        except BaseException:
            if self._manifest is not None:
                self._manifest.close()
            for table in self._tables:
                table.close()
            self._release_dir_lock()
            raise
        # Group commit: every mutation's frame rides this pipeline, and
        # only the current leader ever swaps the active WAL -- through a
        # barrier's apply (flush()) or the end-of-batch seal hook, both
        # at batch boundaries -- the invariant that makes the leader's
        # unlocked read of ``self._wal`` in ``_commit_frames`` safe and
        # guarantees a committed batch is never split across segments.
        self._pipeline = CommitPipeline(
            self._commit_frames,
            max_batch_records=wal_batch_records,
            max_batch_bytes=wal_batch_bytes,
            on_batch_applied=self._seal_after_batch,
        )

    # ------------------------------------------------------------------
    # Open / recovery
    # ------------------------------------------------------------------
    def _acquire_dir_lock(self) -> None:
        """Take an exclusive advisory lock on ``root/LOCK``.

        Opening a store runs recovery, which deletes the WAL segments it
        replays -- so a second opener on the same directory (say,
        ``repro lsm stats`` pointed at a live server's data dir) would
        destroy the first opener's active WAL.  One opener per directory,
        everyone else fails fast.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX platform
            return
        handle = open(self._root / "LOCK", "a+b")
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            handle.close()
            raise DataStoreError(
                f"store root {self._root} is already open elsewhere "
                "(an LSM directory admits one store at a time; close the "
                "other opener or work on a copy)"
            ) from None
        self._lock_handle = handle

    def _release_dir_lock(self) -> None:
        if self._lock_handle is not None:
            self._lock_handle.close()  # closing the fd drops the flock
            self._lock_handle = None

    def _recover(self) -> None:
        """Rebuild the table set from the MANIFEST, then replay the WAL.

        The manifest is the authority on which ``*.sst`` files are part
        of the store: files it does not name are uncommitted leftovers of
        a crashed flush or compaction and are deleted (their data is
        either still in a WAL segment or still in the old tables), and
        files it names but the directory lacks are an error.  A PR-4-era
        directory with no MANIFEST is migrated once: the directory scan
        seeds the live set and a manifest is synthesized.  Either way the
        manifest is rewritten as one clean snapshot frame (which also
        repairs a torn tail), ``*.sst.tmp`` orphans from crashed table
        writes are swept, WAL segments are replayed (streaming, torn
        tails truncated) and flushed straight to a fresh SSTable so the
        recovered state is immediately durable.
        """
        # --- sweep temp-file orphans (crash mid-write leaves mkstemp files)
        orphan_tmps = 0
        for path in sorted(self._root.iterdir()):
            if path.name.endswith((".sst.tmp", ".manifest.tmp")):
                path.unlink()
                orphan_tmps += 1

        # --- determine the committed table set
        manifest_path = self._root / MANIFEST_NAME
        on_disk = {
            path.name for path in self._root.iterdir() if _SST_NAME.match(path.name)
        }
        manifest_missing = not manifest_path.exists()
        manifest_torn = False
        manifest_discarded = 0
        stray_ssts = 0
        if manifest_missing:
            # Migration path: a PR-4-era directory scan, trusted exactly once.
            live = sorted(on_disk)
        else:
            replay = Manifest.replay(manifest_path)
            manifest_torn = replay.torn
            manifest_discarded = replay.discarded_bytes
            require_tables_on_disk(self._root, replay.tables)
            live = replay.tables
            for name in sorted(on_disk - set(live)):
                # Uncommitted flush/compaction output (or an input that a
                # committed compaction already removed): never load it.
                (self._root / name).unlink()
                stray_ssts += 1

        for name in live:
            match = _SST_NAME.match(name)
            if match is None:
                raise DataStoreError(
                    f"MANIFEST in {self._root} lists malformed table name {name!r}"
                )
            table = SSTable(self._root / name)
            table.seq = int(match.group(1))  # type: ignore[attr-defined]
            table.gen = int(match.group(2))  # type: ignore[attr-defined]
            self._tables.append(table)
        self._tables.sort(key=lambda t: (t.seq, t.gen))  # type: ignore[attr-defined]
        next_seq = 1 + max(
            [t.seq for t in self._tables]  # type: ignore[attr-defined]
            + [0],
        )

        # One clean snapshot frame: repairs any torn tail, compacts the
        # edit history, and (on migration) persists the synthesized set.
        self._manifest = Manifest.create(
            manifest_path,
            [t.path.name for t in self._tables],
            fsync=self._fsync,
        )

        wal_paths = sorted(
            (path for path in self._root.iterdir() if _WAL_NAME.match(path.name)),
            key=lambda p: int(_WAL_NAME.match(p.name).group(1)),  # type: ignore[union-attr]
        )
        replayed = Memtable()
        records = 0
        torn = False
        discarded = 0
        for path in wal_paths:
            replay = WriteAheadLog.replay(path)
            next_seq = max(next_seq, int(_WAL_NAME.match(path.name).group(1)) + 1)  # type: ignore[union-attr]
            records += len(replay.records)
            torn = torn or replay.torn
            discarded += replay.discarded_bytes
            for record in replay.records:
                if record.op == OP_PUT:
                    replayed.put(record.key, record.value)
                elif record.op == OP_DELETE:
                    replayed.delete(record.key)
        if replayed:
            self._write_table(replayed, next_seq, 0)
            next_seq += 1
        for path in wal_paths:
            path.unlink()
        if (
            (wal_paths and (records or torn))
            or stray_ssts
            or orphan_tmps
            or manifest_torn
            or (manifest_missing and on_disk)
        ):
            self.obs.emit(
                "lsm_recovery",
                store=self.name,
                records=records,
                wal_segments=len(wal_paths),
                torn_tail=torn,
                discarded_bytes=discarded,
                stray_ssts=stray_ssts,
                orphan_tmps=orphan_tmps,
                manifest_created=manifest_missing,
                manifest_torn=manifest_torn,
                manifest_discarded_bytes=manifest_discarded,
            )

        self._memtable = Memtable()
        self._wal_seq = next_seq
        self._wal = WriteAheadLog(self._wal_path(next_seq), fsync=self._fsync)
        self._sync_segment_name()
        self._sync_table_gauge()

    def _sync_segment_name(self) -> None:
        """With ``fsync=True``, make the new WAL segment's directory entry
        durable: a batch's fsync covers the file's bytes, not its name, so
        without this a power loss could forget a freshly created segment
        and every write acknowledged into it.  Called outside the store
        lock, before any batch can commit to the segment."""
        if self._fsync:
            fsync_dir(self._root)

    def _wal_path(self, seq: int) -> Path:
        return self._root / f"wal-{seq:06d}.log"

    def _sst_path(self, seq: int, gen: int) -> Path:
        return self._root / f"{seq:06d}-{gen:03d}.sst"

    def _sync_table_gauge(self) -> None:
        if self.obs.enabled:
            self.obs.gauge("lsm.sstables").set(len(self._tables))

    # ------------------------------------------------------------------
    # KV contract: primitives
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise StoreClosedError(f"store {self.name!r} is closed")

    def _check_writable(self) -> None:
        self._check_open()
        if self._wal_failed:
            raise WalPoisonedError(
                f"store {self.name!r} refuses writes: its WAL segment is "
                "poisoned by an earlier sync failure (acknowledged writes "
                "are intact; reopen the store to resume)"
            )

    def get(self, key: str) -> Any:
        return self._serializer.loads(self._read_payload(encode_key(key), key))

    def get_with_version(self, key: str) -> tuple[Any, str]:
        payload = self._read_payload(encode_key(key), key)
        return self._serializer.loads(payload), content_version(payload)

    def put(self, key: str, value: Any) -> None:
        # Same write path as put_with_version, minus the version-token
        # hash nobody asked for.
        self._write(OP_PUT, [(encode_key(key), self._serializer.dumps(value))])

    def put_with_version(self, key: str, value: Any) -> str:
        payload = self._serializer.dumps(value)
        self._write(OP_PUT, [(encode_key(key), payload)])
        return content_version(payload)

    def put_many(self, items: Mapping[str, Any]) -> None:
        """All-or-error, one WAL commit per chunk; not atomic for readers, and
        a batch whose call did not return may survive a crash as a prefix."""
        dumps = self._serializer.dumps
        self._write(OP_PUT, ((encode_key(k), dumps(v)) for k, v in items.items()))

    def delete(self, key: str) -> bool:
        return self._write(OP_DELETE, [(encode_key(key), b"")]) == 1

    def delete_many(self, keys: Iterable[str]) -> int:
        return self._write(OP_DELETE, ((encode_key(key), b"") for key in keys))

    def _write(self, op: int, records: Iterable[tuple[bytes, bytes]]) -> int:
        """The one mutation path: frame, chunk, commit, apply.

        Every record gets its own CRC frame; frames ride the commit
        pipeline as multi-record tickets cut at the ``wal_batch_*``
        bounds (a ticket never outgrows a commit batch) and where the
        memtable's budget runs out, so a batch seals where the same
        records written one by one would have.  The caller thread holds
        no lock while waiting.  Returns how many deleted keys existed
        (0 for puts).
        """
        self._check_writable()
        max_records, max_bytes = self._chunk_bounds
        existed = size = room = 0
        chunk: list[tuple[bytes, bytes]] = []
        frames: list[bytes] = []
        for raw, payload in records:
            frame = encode_record(op, raw, payload)
            if frames and (
                len(frames) == max_records or size + len(frame) > max_bytes or room <= 0
            ):
                existed += self._commit_chunk(op, frames, chunk)
                chunk, frames, size = [], [], 0
            if not frames:  # unlocked read: a stale budget only moves a cut
                room = self._memtable_bytes - self._memtable.approximate_bytes
            chunk.append((raw, payload))
            frames.append(frame)
            size += len(frame)
            room -= len(raw) + len(payload) + ENTRY_OVERHEAD
        if frames:
            existed += self._commit_chunk(op, frames, chunk)
        return existed

    def _commit_chunk(
        self, op: int, frames: list[bytes], chunk: list[tuple[bytes, bytes]]
    ) -> int:
        """One ticket: one WAL write (+ fsync), one apply under one lock."""
        existed = 0
        unseen: list[bytes] = []  # deleted keys no memory level knew
        tables: list[SSTable] = []  # snapshot from before the tombstones

        def apply() -> None:
            # Runs in the leader thread, in batch order, so visibility
            # order always matches WAL replay order.  Never seals: see
            # _seal_after_batch.
            nonlocal existed, tables
            with self._lock:
                memtable = self._memtable
                if op == OP_PUT:
                    for raw, payload in chunk:
                        memtable.put(raw, payload)
                    return
                # The "existed" return value needs a pre-tombstone lookup.
                # The memory levels are O(1) dict hits, checked here so
                # each check-and-tombstone pair stays atomic; the SSTable
                # probes run later in the caller's thread, off the lock,
                # against a snapshot taken before the tombstones landed,
                # so slow disk probes never stall writers.
                for raw, _payload in chunk:
                    found = self._find_in_memory(raw)[0]
                    if found is None:
                        unseen.append(raw)
                    elif not isinstance(found, Tombstone):
                        existed += 1
                    memtable.delete(raw)
                tables = list(self._tables)

        self._pipeline.submit(frames, apply)
        for raw in unseen:
            if isinstance(self._find_in_tables(raw, tables), bytes):
                existed += 1
        return existed

    # ------------------------------------------------------------------
    # Group commit internals (leader-thread code)
    # ------------------------------------------------------------------
    def _commit_frames(self, frames: list[bytes]) -> None:
        """Persist one batch: a single WAL write + (if configured) fsync.

        Runs in the pipeline leader's thread with no store lock held --
        an fsync never stalls readers, and waiting writers are queued in
        the pipeline, not on the lock.  Reading ``self._wal`` unlocked is
        safe because only the apply stream ever swaps it: one leader at a
        time, each handing the queue on under the pipeline's mutex after
        its seal.
        """
        wal = self._wal
        try:
            written = wal.write_batch(frames)
        except WalPoisonedError:
            if not self._wal_failed:
                # First failure on this segment: record it once.  Later
                # rejections of queued writers reuse the poisoned state
                # but are not new sync failures.
                self._wal_failed = True
                if self.obs.enabled:
                    self.obs.inc("lsm.wal.sync_failures")
                self.obs.emit(
                    "lsm_wal_poisoned",
                    store=self.name,
                    segment=wal.path.name,
                    batch_records=len(frames),
                )
            raise
        if self.obs.enabled:
            # Batch-granular accounting: counter totals are identical to
            # per-record increments but cost two lock acquisitions per
            # sync instead of two per write -- measurable on the group
            # write path, where python-side work bounds throughput.
            self.obs.inc("lsm.wal.appends", len(frames))
            self.obs.inc("lsm.wal.bytes", written)
            self.obs.inc("lsm.wal.group_commits")
            self.obs.observe("lsm.wal.batch_records", float(len(frames)))
            self.obs.observe("lsm.wal.batch_bytes", float(written))

    def _seal_after_batch(self) -> None:
        """Pipeline end-of-batch hook: seal at a batch boundary only.

        Runs in the leader thread after the last apply of each committed
        batch, so the memtable it seals contains *every* record of every
        batch committed to the active WAL segment.  A seal between two
        applies of one batch would split it across segments: the pre-seal
        segment holds the frames, the post-seal memtable the applies, and
        flushing the sealed memtable unlinks the only durable copy of the
        rest of the batch.  The memtable may overshoot its budget by up
        to one batch; that slack is bounded by ``wal_batch_bytes``.
        """
        self._seal(self._memtable_bytes)

    def get_many(self, keys: Iterable[str]) -> dict[str, Any]:
        keys = list(keys)
        payloads = self._probe([encode_key(key) for key in keys])
        loads = self._serializer.loads
        return {k: loads(p) for k, p in zip(keys, payloads) if p is not None}

    def keys(self) -> Iterator[str]:
        return map(decode_key, self._merged_keys())

    def keys_with_prefix(self, prefix: str) -> Iterator[str]:
        """Prefix scan by seeking every sorted run to *prefix* (no full scan)."""
        return map(decode_key, self._merged_keys(encode_key(prefix)))

    def contains(self, key: str) -> bool:
        return self._probe((encode_key(key),))[0] is not None

    def close(self) -> None:
        with self._lock:
            if self._closed or self._closing:
                follower = True
            else:
                self._closing = True
                follower = False
        if follower:
            # A concurrent close() must not return while the first one
            # is still draining the pipeline and flushing: wait for it.
            self._close_done.wait()
            return
        try:
            # Drain-or-reject: every write already queued in the commit
            # pipeline is committed and acknowledged (or failed with its
            # real error), later submits raise StoreClosedError -- a
            # queued-but-uncommitted batch is never silently dropped at
            # close time.
            self._pipeline.close()
            with self._lock:
                self._closed = True
            if self._owns_scheduler:
                self._scheduler.close()
            with self._lock:
                self._wal.close()
                for memtable, wal, _seq in self._immutables:
                    wal.close()
                self._immutables.clear()
                for table in self._tables:
                    table.close()
                self._tables.clear()
                if self._manifest is not None:
                    self._manifest.close()
                self._release_dir_lock()
        finally:
            self._close_done.set()

    def native(self) -> Path:
        """The data directory (WAL segments and SSTable files live here)."""
        return self._root

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def _probe(self, raws: "tuple[bytes, ...] | list[bytes]") -> "list[bytes | None]":
        """Newest-wins lookups; ``None`` means absent (or tombstoned).

        The memory levels are read and the table list snapshotted under one
        lock acquisition; the SSTable probes then run with no lock held,
        since every snapshotted structure is immutable or append-only.
        """
        with self._lock:
            self._check_open()
            hits = [self._find_in_memory(raw) for raw in raws]
            tables = list(self._tables)
        payloads: "list[bytes | None]" = []
        for raw, (found, level) in zip(raws, hits):
            if found is None:
                found, level = self._find_in_tables(raw, tables), "sstable"
            if self.obs.enabled:
                self.obs.inc(
                    "lsm.read.misses" if found is MISSING else f"lsm.read.level_hits.{level}"
                )
            payloads.append(found if isinstance(found, bytes) else None)
        return payloads

    def _find_in_memory(self, raw: bytes) -> "tuple[bytes | Tombstone | None, str]":
        """Newest entry for *raw* in the memtables and its level (caller holds the lock)."""
        found = self._memtable.get(raw)
        if found is not None:
            return found, "memtable"
        for memtable, _wal, _seq in reversed(self._immutables):
            found = memtable.get(raw)
            if found is not None:
                return found, "immutable"
        return None, ""

    @staticmethod
    def _find_in_tables(raw: bytes, tables: list[SSTable]) -> Any:
        """Newest entry for *raw* in *tables* (oldest first), or :data:`MISSING`.

        The key is hashed once; every table's Bloom filter is probed with
        that one pair.
        """
        hashed = key_hash(raw)
        for table in reversed(tables):
            if table.might_contain(raw, hashed):
                found = table.get(raw)
                if found is not MISSING:
                    return found
        return MISSING

    def _read_payload(self, raw: bytes, key: str) -> bytes:
        payload = self._probe((raw,))[0]
        if payload is None:
            raise KeyNotFoundError(key, self.name)
        return payload

    def _merged_keys(self, prefix: bytes = b"") -> Iterator[bytes]:
        """Live keys starting with *prefix*, in key order across every level
        (newest version wins, tombstones suppress everything older).

        A key scan: the tables are read with ``values=False``, so a
        ``STATS`` / ``DBSIZE`` / ``KEYS`` never slices a value out of a
        block.
        """
        with self._lock:
            self._check_open()
            runs = [table.items_from(prefix, values=False) for table in self._tables]
            runs += [iter(list(m.items())) for m, _wal, _seq in self._immutables]
            runs.append(iter(list(self._memtable.items())))
        for key, _value in merge_runs(runs, drop_tombstones=True):
            if key.startswith(prefix):
                yield key
            elif key > prefix:
                break  # sorted: nothing after can match the prefix

    # ------------------------------------------------------------------
    # Flush
    # ------------------------------------------------------------------
    def _seal(self, budget: int = 0) -> None:
        """Seal a non-empty memtable holding at least *budget* bytes, then
        schedule its flush.

        Only the swap -- memtable to the immutable list, a fresh WAL
        segment -- happens under the lock.  The flush is submitted after
        the lock is released, so with the inline scheduler the SSTable
        write, the manifest append and any compaction it triggers run in
        this (leader) thread while readers keep going; ``_flush_one`` and
        ``_compact_tables`` take the lock only for their short splices.
        """
        with self._lock:
            sealed = self._memtable
            if self._closed or not sealed or sealed.approximate_bytes < budget:
                return
            sealed_wal = self._wal
            sealed_seq = self._wal_seq
            self._immutables.append((sealed, sealed_wal, sealed_seq))
            self._memtable = Memtable()
            self._wal_seq += 1
            self._wal = WriteAheadLog(self._wal_path(self._wal_seq), fsync=self._fsync)
        self._sync_segment_name()
        self._submit("flush", lambda: self._flush_one(sealed, sealed_wal, sealed_seq))

    def _submit(self, kind: str, task: Callable[[], None]) -> None:
        """Hand *task* to the scheduler; a failure is journalled as
        ``lsm_task_failed``, counted in ``lsm.tasks.failed`` and re-raised
        (a background scheduler's worker would otherwise swallow it)."""

        def run() -> None:
            try:
                task()
            except Exception as exc:
                self.obs.inc("lsm.tasks.failed")
                self.obs.emit(
                    "lsm_task_failed",
                    store=self.name,
                    task=kind,
                    error=type(exc).__name__,
                    message=str(exc),
                )
                raise

        self._scheduler.submit(run)

    def flush(self) -> None:
        """Seal the current memtable and flush every sealed table now.

        With the default inline scheduler this returns once the data is in
        SSTables; with a deferred scheduler it queues the work.

        The seal rides the commit pipeline as a barrier (an empty frame):
        it is ordered strictly after every batch already queued and
        commits **alone** -- the pipeline never batches data frames
        across a barrier -- so a write acknowledged before ``flush()``
        returns is always in the sealed memtable, never split from its
        WAL segment, and a write queued behind the barrier is committed
        to the fresh post-seal segment.  Only the current leader ever
        swaps the active WAL.
        """
        self._check_writable()
        self._pipeline.submit(b"", self._seal)

    def _flush_one(self, sealed: Memtable, wal: WriteAheadLog, seq: int) -> None:
        started = self._clock()
        with self._lock:
            if self._closed:
                return  # sealed WAL segment stays; the next open replays it
        table = self._write_table(sealed, seq, 0)
        if table is None:
            return  # store closed mid-write; ditto
        with self._lock:
            self._immutables = [
                entry for entry in self._immutables if entry[0] is not sealed
            ]
            self._sync_table_gauge()
        wal.unlink()
        if self.obs.enabled:
            self.obs.inc("lsm.memtable.flushes")
            self.obs.observe("lsm.flush.seconds", self._clock() - started)
        self.obs.emit(
            "lsm_flush",
            store=self.name,
            entries=len(sealed),
            bytes=sealed.approximate_bytes,
            sstable=table.path.name,
        )
        if self._auto_compact:
            self.maybe_compact()

    def _write_table(self, memtable: Memtable, seq: int, gen: int) -> "SSTable | None":
        """Write a memtable as an SSTable and splice it into the table list.

        Returns ``None`` -- and removes the just-written file -- when the
        store closed while the table was being written: the caller's WAL
        segment is still on disk, so the data is replayed on the next open
        instead of being spliced into a closed store.
        """
        table = self._new_table(memtable.items(), seq, gen)
        with self._lock:
            if self._closed:
                table.unlink()
                return None
            # Commit point: the table joins the store only once the
            # manifest says so.  A crash before this append leaves a
            # stray .sst (swept on the next open) and the WAL segment
            # still on disk -- nothing acknowledged is lost either way.
            self._manifest.append(add=[table.path.name])
            self._tables.append(table)
            self._tables.sort(key=lambda t: (t.seq, t.gen))  # type: ignore[attr-defined]
        return table

    def _new_table(
        self, entries: Iterable[tuple[bytes, "bytes | Tombstone"]], seq: int, gen: int
    ) -> SSTable:
        """Stream *entries* into table ``seq``-``gen`` and open it (not yet live)."""
        path = write_sstable(
            self._sst_path(seq, gen),
            entries,
            index_interval=self._index_interval,
            bloom_fp_rate=self._bloom_fp_rate,
            fsync=self._fsync,
        )
        table = SSTable(path)
        table.seq = seq  # type: ignore[attr-defined]
        table.gen = gen  # type: ignore[attr-defined]
        return table

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def maybe_compact(self) -> bool:
        """Ask the policy for a merge; schedule it if one is due."""
        with self._lock:
            self._check_open()
            if self._compacting:
                return False
            selected = self._policy.select(self._tables)
            if not selected:
                return False
            self._compacting = True
        self._submit("compact", lambda: self._compact_tables(selected))
        return True

    def compact(self) -> int:
        """Force a full merge of every SSTable (flushing the memtable first).

        The output is a single run with every overwritten value and every
        tombstone reclaimed.  Returns the number of tables merged: with the
        default inline scheduler the merge has completed by the time this
        returns; with a deferred scheduler (``ManualScheduler``,
        ``BackgroundScheduler``) the flush and the merge are queued -- the
        tables to merge are selected only once the queued flush has run --
        and the method returns 0 because no work has happened yet.
        """
        self.flush()
        with self._lock:
            self._check_open()
            if self._compacting:
                return 0
            self._compacting = True
        merged = [0]

        def task() -> None:
            merged[0] = self._compact_all()

        self._submit("compact", task)
        return merged[0]

    def _compact_all(self) -> int:
        """Merge every table on disk *now* (any queued flush has run)."""
        with self._lock:
            if self._closed or len(self._tables) < 2:
                selected: list[SSTable] = []
            else:
                selected = list(self._tables)
        if not selected:
            with self._lock:
                self._compacting = False
            return 0
        self._compact_tables(selected)
        return len(selected)

    def _compact_tables(self, selected: list[SSTable]) -> None:
        started = self._clock()
        try:
            with self._lock:
                if self._closed:
                    return
                # The merged output takes the newest input's place in the
                # age order, so the inputs MUST be an age-contiguous run of
                # the current table list: merging around a skipped middle
                # table would rank the older inputs' values above that
                # table's newer versions.  The policy only hands out
                # contiguous runs; this guard also catches selections gone
                # stale between scheduling and execution.
                position = {id(t): i for i, t in enumerate(self._tables)}
                first = position.get(id(selected[0]))
                if first is None or any(
                    position.get(id(table)) != first + offset
                    for offset, table in enumerate(selected)
                ):
                    return
                # Tombstones can be reclaimed only when nothing older than
                # the merge output survives below it: the inputs must be a
                # contiguous prefix of the age order.
                drop = first == 0
                newest = selected[-1]
                gen = 1 + max(t.gen for t in selected)  # type: ignore[attr-defined]
                seq = newest.seq  # type: ignore[attr-defined]
            # Streamed, never materialised; the peek skips the table when
            # every record was a reclaimed tombstone.
            merged = merge_tables(selected, drop_tombstones=drop)
            head = next(merged, None)
            output = None if head is None else self._new_table(chain((head,), merged), seq, gen)
            with self._lock:
                if self._closed:
                    if output is not None:
                        output.close()
                    return
                # Commit point: one manifest frame swaps the output in
                # and the inputs out atomically.  Crash before it: the
                # output is a stray (swept on open) and the old tables
                # win.  Crash after it: the inputs are strays and the
                # output wins.  Recovery never sees the swap half-done.
                self._manifest.append(
                    add=[output.path.name] if output is not None else [],
                    remove=[t.path.name for t in selected],
                )
                survivors = [t for t in self._tables if t not in selected]
                if output is not None:
                    survivors.append(output)
                    survivors.sort(key=lambda t: (t.seq, t.gen))  # type: ignore[attr-defined]
                self._tables = survivors
                for table in selected:
                    # Unlink now; the descriptor closes with the last
                    # reference -- a reader holding a pre-swap snapshot
                    # may still be scanning the table.
                    table.path.unlink(missing_ok=True)
                self._sync_table_gauge()
            if self.obs.enabled:
                self.obs.inc("lsm.compactions")
                self.obs.observe("lsm.compaction.seconds", self._clock() - started)
            self.obs.emit(
                "lsm_compact",
                store=self.name,
                inputs=len(selected),
                input_bytes=sum(t.size_bytes for t in selected),
                output=output.path.name if output is not None else None,
                records=output.record_count if output is not None else 0,
                tombstones_dropped=drop,
            )
        finally:
            with self._lock:
                self._compacting = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Engine internals for the CLI and the monitoring plane."""
        with self._lock:
            self._check_open()
            tables = list(self._tables)
            return {
                "root": str(self._root),
                "memtable_entries": len(self._memtable),
                "memtable_bytes": self._memtable.approximate_bytes,
                "immutable_memtables": len(self._immutables),
                "wal_bytes": self._wal.size_bytes,
                "wal_segment": self._wal.path.name,
                "wal_poisoned": self._wal_failed,
                "group_commit": self._pipeline.stats(),
                "manifest_bytes": self._manifest.size_bytes,
                "sstables": len(tables),
                "sstable_records": sum(t.record_count for t in tables),
                "sstable_bytes": sum(t.size_bytes for t in tables),
                "pending_tasks": self._scheduler.pending(),
                "block_cache": None,  # no block cache; the key stays for old readers
                "tables": [
                    {
                        "file": t.path.name,
                        "records": t.record_count,
                        "bytes": t.size_bytes,
                    }
                    for t in tables
                ],
            }

    def __repr__(self) -> str:
        return f"<LSMStore name={self.name!r} root={str(self._root)!r}>"
