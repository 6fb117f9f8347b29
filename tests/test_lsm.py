"""The LSM engine: WAL, memtable, SSTables, compaction, recovery, wiring.

The crash-recovery tests simulate crashes the honest way: copy a live
store's directory mid-flight (the moment of "power loss") and open a new
store over the copy.  Nothing here ever sleeps -- background work is
driven by :class:`~repro.lsm.ManualScheduler`.
"""

from __future__ import annotations

import io
import os
import random
import shutil
import stat
import struct
import sys
import threading

import pytest

from repro.caching.bloom import key_hash
from repro.errors import (
    ConfigurationError,
    DataStoreError,
    KeyNotFoundError,
    StoreClosedError,
)
from repro.kv import FileSystemStore, LSMStore
from repro.lsm import (
    MANIFEST_NAME,
    MISSING,
    OP_DELETE,
    OP_PUT,
    TOMBSTONE,
    BackgroundScheduler,
    InlineScheduler,
    Manifest,
    ManualScheduler,
    Memtable,
    SizeTieredPolicy,
    SSTable,
    WriteAheadLog,
    merge_tables,
    write_sstable,
)
from repro.lsm import wal as wal_module
from repro.lsm.memtable import Tombstone
from repro.obs import EventLog, Observability


# ----------------------------------------------------------------------
# WAL
# ----------------------------------------------------------------------
class TestWriteAheadLog:
    def test_append_and_replay_roundtrip(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.append_put(b"a", b"1")
        wal.append_put(b"b", b"two")
        wal.append_delete(b"a")
        wal.close()
        replay = WriteAheadLog.replay(wal.path)
        assert not replay.torn
        assert replay.discarded_bytes == 0
        assert [(r.op, r.key, r.value) for r in replay.records] == [
            (OP_PUT, b"a", b"1"),
            (OP_PUT, b"b", b"two"),
            (OP_DELETE, b"a", b""),
        ]

    def test_append_reports_bytes_and_size(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        written = wal.append_put(b"key", b"value")
        assert written == wal.size_bytes
        assert written == wal.path.stat().st_size
        wal.close()

    def test_torn_tail_stops_replay(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.append_put(b"safe", b"payload")
        wal.close()
        with open(wal.path, "ab") as f:
            f.write(b"\x01\x02\x03")  # a torn partial header
        replay = WriteAheadLog.replay(wal.path)
        assert replay.torn
        assert replay.discarded_bytes == 3
        assert [r.key for r in replay.records] == [b"safe"]

    def test_corrupt_crc_stops_replay(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.append_put(b"one", b"1")
        end_of_first = wal.size_bytes
        wal.append_put(b"two", b"2")
        wal.close()
        data = bytearray(wal.path.read_bytes())
        data[-1] ^= 0xFF  # flip a bit inside the second record's payload
        wal.path.write_bytes(bytes(data))
        replay = WriteAheadLog.replay(wal.path)
        assert replay.torn
        assert replay.valid_length == end_of_first
        assert [r.key for r in replay.records] == [b"one"]

    def test_repair_truncates_to_valid_prefix(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.append_put(b"keep", b"me")
        valid = wal.size_bytes
        wal.close()
        with open(wal.path, "ab") as f:
            f.write(b"garbage-tail")
        replay = WriteAheadLog.replay(wal.path)
        WriteAheadLog.repair(wal.path, replay)
        assert wal.path.stat().st_size == valid
        assert not WriteAheadLog.replay(wal.path).torn

    def test_bogus_op_code_treated_as_torn(self, tmp_path):
        import zlib

        payload = struct.pack("<BI", 7, 1) + b"k"  # op 7 does not exist
        frame = struct.pack("<II", zlib.crc32(payload), len(payload)) + payload
        path = tmp_path / "wal.log"
        path.write_bytes(frame)
        replay = WriteAheadLog.replay(path)
        assert replay.torn
        assert replay.records == []

    def test_append_after_close_raises(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.close()
        with pytest.raises(StoreClosedError):
            wal.append_put(b"k", b"v")


# ----------------------------------------------------------------------
# Memtable
# ----------------------------------------------------------------------
class TestMemtable:
    def test_put_get_delete(self):
        table = Memtable()
        table.put(b"k", b"v")
        assert table.get(b"k") == b"v"
        table.delete(b"k")
        assert isinstance(table.get(b"k"), Tombstone)
        assert table.get(b"absent") is None

    def test_items_sorted_with_tombstones(self):
        table = Memtable()
        table.put(b"b", b"2")
        table.put(b"a", b"1")
        table.delete(b"c")
        assert list(table.items()) == [(b"a", b"1"), (b"b", b"2"), (b"c", TOMBSTONE)]

    def test_byte_accounting_tracks_overwrites(self):
        table = Memtable()
        table.put(b"k", b"x" * 100)
        first = table.approximate_bytes
        table.put(b"k", b"x")  # overwrite with a smaller value
        assert table.approximate_bytes < first
        assert len(table) == 1


# ----------------------------------------------------------------------
# SSTable
# ----------------------------------------------------------------------
class TestSSTable:
    def entries(self, count=100):
        return [(b"key-%04d" % i, b"value-%d" % i) for i in range(count)]

    def test_roundtrip_and_point_reads(self, tmp_path):
        path = write_sstable(tmp_path / "t.sst", self.entries(), index_interval=8)
        table = SSTable(path)
        assert len(table) == 100
        assert table.get(b"key-0000") == b"value-0"
        assert table.get(b"key-0057") == b"value-57"
        assert table.get(b"key-0099") == b"value-99"
        assert table.get(b"key-0100") is MISSING
        assert table.get(b"aaa") is MISSING  # before the first key
        table.close()

    def test_tombstones_survive_roundtrip(self, tmp_path):
        entries = [(b"a", b"1"), (b"b", TOMBSTONE), (b"c", b"3")]
        table = SSTable(write_sstable(tmp_path / "t.sst", entries))
        assert isinstance(table.get(b"b"), Tombstone)
        assert list(table.items()) == entries
        table.close()

    def test_items_from_seeks(self, tmp_path):
        table = SSTable(write_sstable(tmp_path / "t.sst", self.entries(), index_interval=4))
        got = list(table.items_from(b"key-0090"))
        assert got[0][0] == b"key-0090"
        assert len(got) == 10
        table.close()

    def test_bloom_filter_excludes_absent_keys(self, tmp_path):
        table = SSTable(write_sstable(tmp_path / "t.sst", self.entries()))
        assert all(table.might_contain(key) for key, _ in self.entries())
        absent = sum(table.might_contain(b"nope-%04d" % i) for i in range(1000))
        assert absent < 100  # ~1% configured fp rate, generous margin
        probes = [key for key, _ in self.entries()] + [b"nope-%04d" % i for i in range(1000)]
        assert [table.might_contain(k, key_hash(k)) for k in probes] == [
            table.might_contain(k) for k in probes
        ]
        table.close()

    def test_unsorted_entries_rejected(self, tmp_path):
        with pytest.raises(DataStoreError):
            write_sstable(tmp_path / "t.sst", [(b"b", b"2"), (b"a", b"1")])
        with pytest.raises(DataStoreError):
            write_sstable(tmp_path / "t.sst", [(b"a", b"1"), (b"a", b"2")])

    def test_truncated_file_rejected(self, tmp_path):
        path = write_sstable(tmp_path / "t.sst", self.entries(4))
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(DataStoreError):
            SSTable(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = write_sstable(tmp_path / "t.sst", self.entries(4))
        data = bytearray(path.read_bytes())
        data[:8] = b"NOTASSTB"
        path.write_bytes(bytes(data))
        with pytest.raises(DataStoreError):
            SSTable(path)


# ----------------------------------------------------------------------
# Merge + policy
# ----------------------------------------------------------------------
class TestMerge:
    def table(self, tmp_path, name, entries):
        return SSTable(write_sstable(tmp_path / name, entries))

    def test_newest_wins_and_tombstones_pass(self, tmp_path):
        old = self.table(tmp_path, "old.sst", [(b"a", b"old"), (b"b", b"old"), (b"c", b"old")])
        new = self.table(tmp_path, "new.sst", [(b"a", b"new"), (b"b", TOMBSTONE)])
        merged = list(merge_tables([old, new], drop_tombstones=False))
        assert merged == [(b"a", b"new"), (b"b", TOMBSTONE), (b"c", b"old")]

    def test_drop_tombstones(self, tmp_path):
        old = self.table(tmp_path, "old.sst", [(b"a", b"1"), (b"b", b"2")])
        new = self.table(tmp_path, "new.sst", [(b"b", TOMBSTONE)])
        merged = list(merge_tables([old, new], drop_tombstones=True))
        assert merged == [(b"a", b"1")]

    def test_policy_merges_similar_sizes_only(self, tmp_path):
        small = [
            self.table(tmp_path, f"s{i}.sst", [(b"k%d" % i, b"x" * 10)]) for i in range(4)
        ]
        big = self.table(
            tmp_path, "big.sst", [(b"big-%04d" % i, b"y" * 100) for i in range(200)]
        )
        policy = SizeTieredPolicy(min_tables=4)
        tables = [big] + small  # age order: big is oldest
        selected = policy.select(tables)
        assert selected == small  # the lone big table is not in the tier

    def test_policy_below_threshold_selects_nothing(self, tmp_path):
        tables = [self.table(tmp_path, f"s{i}.sst", [(b"k", b"v")]) for i in range(3)]
        assert SizeTieredPolicy(min_tables=4).select(tables) == []

    def test_policy_rejects_non_contiguous_size_tier(self, tmp_path):
        # Four similar-sized tables SURROUNDING a big one: merging them
        # would lift the oldest small table's versions above the big
        # table's newer ones (the merged output ranks at the newest
        # input's position), so the policy must not select them.
        small = [
            self.table(tmp_path, f"s{i}.sst", [(b"k%d" % i, b"x" * 10)]) for i in range(4)
        ]
        big = self.table(
            tmp_path, "big.sst", [(b"big-%04d" % i, b"y" * 100) for i in range(200)]
        )
        tables = [small[0], big, small[1], small[2], small[3]]  # big mid-age
        assert SizeTieredPolicy(min_tables=4).select(tables) == []

    def test_policy_selection_is_age_contiguous_run(self, tmp_path):
        small = [
            self.table(tmp_path, f"s{i}.sst", [(b"k%d" % i, b"x" * 10)]) for i in range(5)
        ]
        selected = SizeTieredPolicy(min_tables=2, max_tables=3).select(small)
        assert selected == small[:3]  # trimmed, still an oldest-first run

    def test_policy_validates_config(self):
        with pytest.raises(ConfigurationError):
            SizeTieredPolicy(min_tables=1)
        with pytest.raises(ConfigurationError):
            SizeTieredPolicy(min_tables=4, max_tables=2)


# ----------------------------------------------------------------------
# The store: flush / compaction lifecycle (ManualScheduler, no sleeps)
# ----------------------------------------------------------------------
class TestLSMStoreLifecycle:
    def test_writes_flush_to_sstables_beyond_budget(self, tmp_path):
        scheduler = ManualScheduler()
        with LSMStore(tmp_path / "db", memtable_bytes=600, scheduler=scheduler) as store:
            for i in range(50):
                store.put(f"key-{i:03d}", {"i": i})
            assert scheduler.pending() > 0  # flushes queued, not yet run
            scheduler.run_pending()
            stats = store.stats()
            assert stats["sstables"] >= 1
            assert stats["immutable_memtables"] == 0
            # everything readable across levels
            assert store.get("key-000") == {"i": 0}
            assert store.get("key-049") == {"i": 49}
            assert store.size() == 50

    def test_sealed_memtables_remain_readable_before_flush(self, tmp_path):
        scheduler = ManualScheduler()
        with LSMStore(tmp_path / "db", memtable_bytes=400, scheduler=scheduler) as store:
            for i in range(20):
                store.put(f"k{i}", "v" * 50)
            # flushes are queued but have NOT run: reads must hit the
            # sealed (immutable) memtables.
            assert store.stats()["immutable_memtables"] > 0
            assert store.get("k0") == "v" * 50
            assert store.size() == 20

    def test_flush_deletes_wal_segment(self, tmp_path):
        with LSMStore(tmp_path / "db") as store:
            store.put("a", 1)
            store.flush()
            wals = list((tmp_path / "db").glob("wal-*.log"))
            assert len(wals) == 1  # only the fresh active segment
            assert wals[0].stat().st_size == 0

    def test_auto_compaction_bounds_table_count(self, tmp_path):
        policy = SizeTieredPolicy(min_tables=4)
        with LSMStore(
            tmp_path / "db", memtable_bytes=512, policy=policy
        ) as store:
            for i in range(300):
                store.put(f"key-{i:04d}", "x" * 32)
            stats = store.stats()
            assert stats["sstables"] < 8  # tiering keeps the count bounded
            assert store.obs is not None

    def test_forced_compact_merges_to_one_table(self, tmp_path):
        with LSMStore(tmp_path / "db", auto_compact=False) as store:
            for batch in range(5):
                for i in range(10):
                    store.put(f"key-{batch}-{i}", batch * 100 + i)
                store.flush()
            assert store.stats()["sstables"] == 5
            merged = store.compact()
            assert merged == 5
            stats = store.stats()
            assert stats["sstables"] == 1
            assert stats["sstable_records"] == 50  # overwrites/tombstones gone
            assert store.size() == 50

    def test_compaction_reclaims_overwrites_and_tombstones(self, tmp_path):
        with LSMStore(tmp_path / "db", auto_compact=False) as store:
            for i in range(20):
                store.put(f"k{i:02d}", "first")
            store.flush()
            for i in range(20):
                store.put(f"k{i:02d}", "second")
            store.flush()
            for i in range(10):
                store.delete(f"k{i:02d}")
            store.flush()
            store.compact()
            stats = store.stats()
            assert stats["sstables"] == 1
            assert stats["sstable_records"] == 10  # only live keys remain
            assert sorted(store.keys()) == [f"k{i:02d}" for i in range(10, 20)]

    def test_partial_compaction_keeps_tombstones(self, tmp_path):
        # Merging a non-prefix subset must NOT drop tombstones: an older
        # table still holds the shadowed value.
        with LSMStore(tmp_path / "db", auto_compact=False) as store:
            store.put("victim", "old")
            store.flush()  # table 1 (oldest) holds the value
            store.delete("victim")
            store.flush()  # table 2 holds the tombstone
            store.put("other", 1)
            store.flush()  # table 3
            tables = store._tables
            store._compacting = True
            store._compacting = False
            # merge tables 2+3 only (not a prefix: excludes the oldest)
            store._compact_tables(tables[1:])
            assert "victim" not in set(store.keys())
            with pytest.raises(KeyNotFoundError):
                store.get("victim")

    def test_compaction_never_merges_around_a_newer_table(self, tmp_path):
        # Regression: with size-only bucketing, four small tables that
        # surround a big one merged into an output ranked at the newest
        # input's position, resurrecting the big table's overwritten
        # values and deleted keys.
        with LSMStore(
            tmp_path / "db", policy=SizeTieredPolicy(min_tables=4)
        ) as store:
            store.put("k", "OLD")
            store.put("dead", "live")
            store.flush()  # small table (oldest)
            store.put("k", "NEW")
            store.delete("dead")
            for i in range(200):
                store.put(f"filler-{i:04d}", "y" * 100)
            store.flush()  # big table holding the newest versions
            for i in range(3):
                store.put(f"other-{i}", i)
                store.flush()  # three more small tables
            store.maybe_compact()
            assert store.get("k") == "NEW"
            with pytest.raises(KeyNotFoundError):
                store.get("dead")

    def test_compact_tables_refuses_non_contiguous_selection(self, tmp_path):
        with LSMStore(tmp_path / "db", auto_compact=False) as store:
            for batch in range(3):
                store.put(f"k{batch}", batch)
                store.flush()
            tables = list(store._tables)
            store._compact_tables([tables[0], tables[2]])  # skips the middle
            assert store._tables == tables  # refused: nothing merged

    def test_compact_with_deferred_scheduler_merges_pending_flush(self, tmp_path):
        # compact() selects its inputs only after the queued flush has run,
        # so the just-sealed memtable's table joins the merge.
        scheduler = ManualScheduler()
        with LSMStore(
            tmp_path / "db", scheduler=scheduler, auto_compact=False
        ) as store:
            for i in range(10):
                store.put(f"a{i}", i)
            store.flush()
            for i in range(10):
                store.put(f"b{i}", i)
            assert store.compact() == 0  # queued: no work has happened yet
            scheduler.run_pending()
            stats = store.stats()
            assert stats["sstables"] == 1
            assert stats["sstable_records"] == 20

    def test_empty_compaction_output_drops_tables(self, tmp_path):
        with LSMStore(tmp_path / "db", auto_compact=False) as store:
            store.put("a", 1)
            store.flush()
            store.delete("a")
            store.flush()
            store.compact()
            # value + tombstone annihilate: no output table at all
            assert store.stats()["sstables"] == 0
            assert store.size() == 0

    def test_background_scheduler_drains(self, tmp_path):
        scheduler = BackgroundScheduler()
        try:
            with LSMStore(
                tmp_path / "db", memtable_bytes=512, scheduler=scheduler
            ) as store:
                for i in range(100):
                    store.put(f"key-{i:03d}", "x" * 32)
                assert scheduler.drain(timeout=10.0)
                assert store.stats()["immutable_memtables"] == 0
                assert store.size() == 100
        finally:
            scheduler.close()

    def test_close_with_pending_flush_keeps_wal_for_recovery(self, tmp_path):
        # A flush that runs after close() must not splice an SSTable into
        # the closed store; its WAL segment stays and replays on reopen.
        scheduler = ManualScheduler()
        store = LSMStore(tmp_path / "db", scheduler=scheduler)
        store.put("k", "v")
        store.flush()
        store.close()
        scheduler.run_pending()  # the flush observes the closed store
        assert not list((tmp_path / "db").glob("*.sst"))
        with LSMStore(tmp_path / "db") as recovered:
            assert recovered.get("k") == "v"

    def test_directory_admits_one_opener(self, tmp_path):
        # Opening runs recovery, which deletes replayed WAL segments -- a
        # second opener would destroy the first one's live WAL.
        with LSMStore(tmp_path / "db") as store:
            store.put("k", 1)
            with pytest.raises(DataStoreError):
                LSMStore(tmp_path / "db")
        with LSMStore(tmp_path / "db") as reopened:  # lock released on close
            assert reopened.get("k") == 1

    def test_closed_store_raises(self, tmp_path):
        store = LSMStore(tmp_path / "db")
        store.put("a", 1)
        store.close()
        store.close()  # idempotent
        with pytest.raises(StoreClosedError):
            store.get("a")
        with pytest.raises(StoreClosedError):
            store.put("b", 2)

    def test_missing_root_without_create(self, tmp_path):
        with pytest.raises(DataStoreError):
            LSMStore(tmp_path / "absent", create=False)

    def test_config_validation(self, tmp_path):
        with pytest.raises(ConfigurationError):
            LSMStore(tmp_path / "db", memtable_bytes=0)
        with pytest.raises(ConfigurationError):
            LSMStore(tmp_path / "db", index_interval=0)

    def test_native_exposes_data_directory(self, tmp_path):
        with LSMStore(tmp_path / "db") as store:
            assert store.native() == tmp_path / "db"

    def test_non_utf8_safe_keys(self, tmp_path):
        # StoreServer decodes wire keys with surrogateescape; the encoding
        # must roundtrip them without collision.
        weird = "k-\udcff\udcfe"
        with LSMStore(tmp_path / "db") as store:
            store.put(weird, "value")
            store.flush()
            assert store.get(weird) == "value"
            assert weird in set(store.keys())


# ----------------------------------------------------------------------
# Durability and crash recovery
# ----------------------------------------------------------------------
def crash_copy(store, tmp_path, name="crashed"):
    """Simulate power loss: copy the live directory without closing."""
    target = tmp_path / name
    shutil.copytree(store.native(), target)
    return target


class TestRecovery:
    def test_reopen_after_clean_close(self, tmp_path):
        root = tmp_path / "db"
        with LSMStore(root) as store:
            store.put("a", {"n": 1})
            store.put("b", [1, 2, 3])
            store.delete("a")
        with LSMStore(root) as store:
            assert store.get("b") == [1, 2, 3]
            with pytest.raises(KeyNotFoundError):
                store.get("a")
            assert store.size() == 1

    def test_unflushed_writes_survive_crash(self, tmp_path):
        store = LSMStore(tmp_path / "db")
        for i in range(25):
            store.put(f"key-{i}", i)
        store.delete("key-3")
        crashed = crash_copy(store, tmp_path)  # no close(): WAL only
        store.close()

        events = EventLog()
        with LSMStore(crashed, obs=Observability(events=events)) as recovered:
            assert recovered.size() == 24
            assert recovered.get("key-7") == 7
            with pytest.raises(KeyNotFoundError):
                recovered.get("key-3")
        (record,) = events.tail(kind="lsm_recovery")
        assert record["records"] == 26
        assert record["torn_tail"] is False

    def test_torn_wal_tail_loses_nothing_acknowledged(self, tmp_path):
        store = LSMStore(tmp_path / "db")
        for i in range(10):
            store.put(f"key-{i}", f"value-{i}")
        crashed = crash_copy(store, tmp_path)
        store.close()
        # power loss mid-append: a partial frame at the WAL tail
        (wal_path,) = crashed.glob("wal-*.log")
        with open(wal_path, "ab") as f:
            f.write(b"\x99" * 7)

        events = EventLog()
        with LSMStore(crashed, obs=Observability(events=events)) as recovered:
            for i in range(10):
                assert recovered.get(f"key-{i}") == f"value-{i}"
        (record,) = events.tail(kind="lsm_recovery")
        assert record["torn_tail"] is True
        assert record["discarded_bytes"] == 7

    def test_corrupt_mid_wal_keeps_prefix(self, tmp_path):
        store = LSMStore(tmp_path / "db")
        store.put("first", 1)
        first_end = store.stats()["wal_bytes"]
        store.put("second", 2)
        crashed = crash_copy(store, tmp_path)
        store.close()
        (wal_path,) = crashed.glob("wal-*.log")
        data = bytearray(wal_path.read_bytes())
        data[first_end + 9] ^= 0xFF  # corrupt the second record
        wal_path.write_bytes(bytes(data))

        with LSMStore(crashed) as recovered:
            assert recovered.get("first") == 1
            with pytest.raises(KeyNotFoundError):
                recovered.get("second")

    def test_crash_with_sstables_and_wal(self, tmp_path):
        store = LSMStore(tmp_path / "db", auto_compact=False)
        for i in range(30):
            store.put(f"key-{i:02d}", i)
        store.flush()
        for i in range(30, 40):
            store.put(f"key-{i:02d}", i)  # these live only in the WAL
        crashed = crash_copy(store, tmp_path)
        store.close()
        with LSMStore(crashed) as recovered:
            assert recovered.size() == 40
            assert recovered.get("key-05") == 5
            assert recovered.get("key-35") == 35

    def test_recovered_state_is_immediately_durable(self, tmp_path):
        # Recovery flushes the replayed memtable to an SSTable and deletes
        # the old WALs, so a second crash right after open loses nothing.
        store = LSMStore(tmp_path / "db")
        store.put("a", 1)
        crashed = crash_copy(store, tmp_path)
        store.close()
        once = LSMStore(crashed)
        twice_dir = crash_copy(once, tmp_path, "crashed-twice")
        once.close()
        with LSMStore(twice_dir) as twice:
            assert twice.get("a") == 1

    def test_versioned_ops_roundtrip(self, tmp_path):
        with LSMStore(tmp_path / "db") as store:
            token = store.put_with_version("k", {"v": 1})
            value, seen = store.get_with_version("k")
            assert value == {"v": 1}
            assert seen == token


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
class TestLSMObservability:
    def test_metrics_and_events(self, tmp_path):
        events = EventLog()
        obs = Observability(events=events)
        with LSMStore(tmp_path / "db", auto_compact=False, obs=obs) as store:
            for i in range(10):
                store.put(f"k{i}", i)
            store.get("k0")             # memtable hit
            store.flush()
            store.get("k1")             # sstable hit
            store.flush()               # no-op: empty memtable
            for i in range(10):
                store.put(f"k{i}", i + 1)
            store.flush()
            store.compact()
            with pytest.raises(KeyNotFoundError):
                store.get("absent")

            registry = obs.registry
            assert registry.counter("lsm.wal.appends").value == 20
            assert registry.counter("lsm.memtable.flushes").value == 2
            assert registry.counter("lsm.compactions").value == 1
            assert registry.counter("lsm.read.level_hits.memtable").value >= 1
            assert registry.counter("lsm.read.level_hits.sstable").value >= 1
            assert registry.counter("lsm.read.misses").value == 1
            assert registry.gauge("lsm.sstables").value == 1

        flushes = events.tail(kind="lsm_flush")
        assert len(flushes) == 2
        assert flushes[0]["entries"] == 10
        (compaction,) = events.tail(kind="lsm_compact")
        assert compaction["inputs"] == 2
        assert compaction["records"] == 10
        assert compaction["tombstones_dropped"] is True

    def test_null_obs_by_default(self, tmp_path):
        with LSMStore(tmp_path / "db") as store:
            store.put("a", 1)
            assert not store.obs.enabled


# ----------------------------------------------------------------------
# Integration: server, UDSM, workload generator
# ----------------------------------------------------------------------
class TestLSMIntegration:
    def test_store_server_over_lsm(self, tmp_path):
        from repro.kv import RemoteKeyValueStore
        from repro.lsm.store import LSMStore as LSM
        from repro.net.server import ServerHandle, StoreServer

        backing = LSM(tmp_path / "served")
        server = StoreServer(backing)
        host, port = server.start()
        try:
            with ServerHandle(host, port, server=server):
                remote = RemoteKeyValueStore(host, port)
                remote.put("wire-key", {"over": "tcp"})
                assert remote.get("wire-key") == {"over": "tcp"}
                assert remote.delete("wire-key") is True
                remote.close()
        finally:
            backing.close()

    def test_udsm_registration_and_monitoring(self, tmp_path):
        from repro.udsm import UniversalDataStoreManager

        with UniversalDataStoreManager() as udsm:
            udsm.register("lsm", LSMStore(tmp_path / "db"))
            store = udsm.store("lsm")
            store.put("k", "v")
            assert store.get("k") == "v"
            future = udsm.async_store("lsm").get("k")
            assert future.result() == "v"

    def test_workload_generator_runs_on_lsm(self, tmp_path):
        from repro.udsm.workload import WorkloadGenerator

        with LSMStore(tmp_path / "db") as store:
            generator = WorkloadGenerator(sizes=(64,), repeats=2)
            results = generator.compare_stores([store])
            assert store.name in results

    def test_enhanced_client_over_lsm(self, tmp_path):
        from repro.caching import InProcessCache
        from repro.core import EnhancedDataStoreClient

        with LSMStore(tmp_path / "db") as store:
            client = EnhancedDataStoreClient(store, cache=InProcessCache())
            client.put("k", {"cached": True})
            assert client.get("k") == {"cached": True}
            assert client.get("k") == {"cached": True}  # cache hit
            assert client.counters.cache_hits >= 1


# ----------------------------------------------------------------------
# Reads through the OS page cache; descriptors of retired tables
# ----------------------------------------------------------------------
def _open_sst_fds(root) -> dict[str, int]:
    """This process's open descriptors on ``*.sst`` files under *root*:
    ``{"live": n, "deleted": m}`` (Linux ``/proc/self/fd``)."""
    counts = {"live": 0, "deleted": 0}
    prefix = str(root)
    for entry in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{entry}")
        except OSError:
            continue  # closed between listdir and readlink
        if not target.startswith(prefix):
            continue
        if target.endswith(".sst (deleted)"):
            counts["deleted"] += 1
        elif target.endswith(".sst"):
            counts["live"] += 1
    return counts


needs_proc_fds = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="counts descriptors via /proc/self/fd (Linux)"
)


class TestSSTableReads:
    def entries(self, count=100):
        return [(b"key-%04d" % i, b"value-%d" % i) for i in range(count)]

    def table(self, tmp_path):
        return SSTable(write_sstable(tmp_path / "t.sst", self.entries(), index_interval=8))

    def test_every_point_read_is_one_pread(self, tmp_path, monkeypatch):
        table = self.table(tmp_path)
        real_pread = os.pread
        preads = []
        monkeypatch.setattr(os, "pread", lambda *a: (preads.append(a), real_pread(*a))[1])
        for _ in range(2):  # the same key again: still one read, nothing cached
            assert table.get(b"key-0042") == b"value-42"
        assert table.get(b"key-0040") == b"value-40"  # same block
        assert len(preads) == 3
        monkeypatch.undo()
        table.close()

    def test_scans_read_every_block(self, tmp_path):
        table = self.table(tmp_path)
        assert list(table.items()) == self.entries()
        tail = list(table.items_from(b"key-0090"))
        assert tail[0][0] == b"key-0090" and len(tail) == 10
        assert list(table.items_from(b"key-0090", values=False)) == [
            (key, b"") for key, _value in tail
        ]
        table.close()

    @needs_proc_fds
    def test_descriptor_closes_with_the_last_reference(self, tmp_path):
        table = self.table(tmp_path)
        assert _open_sst_fds(tmp_path)["live"] == 1
        scan = table.items()
        next(scan)
        del table
        assert _open_sst_fds(tmp_path)["live"] == 1  # the scan holds the table
        del scan
        assert _open_sst_fds(tmp_path)["live"] == 0

    def test_close_is_idempotent(self, tmp_path):
        table = self.table(tmp_path)
        table.close()
        table.close()
        with pytest.raises(OSError):
            table.get(b"key-0001")

    @needs_proc_fds
    @pytest.mark.parametrize("damage", ["truncated", "bad magic"])
    def test_a_failed_open_leaves_no_descriptor(self, tmp_path, damage):
        path = write_sstable(tmp_path / "t.sst", self.entries(4))
        data = path.read_bytes()
        path.write_bytes(data[:10] if damage == "truncated" else b"NOTASSTB" + data[8:])
        with pytest.raises(DataStoreError):
            SSTable(path)
        assert _open_sst_fds(tmp_path)["live"] == 0


def _settle(scheduler) -> None:
    """Run or wait out every queued flush and merge."""
    if isinstance(scheduler, ManualScheduler):
        scheduler.run_pending()
    elif isinstance(scheduler, BackgroundScheduler):
        assert scheduler.drain(timeout=30.0)


class TestRetiredTables:
    def test_stats_report_no_block_cache(self, tmp_path):
        with LSMStore(tmp_path / "db") as store:
            store.put("a", 1)
            store.flush()
            assert store.get("a") == 1
            assert store.stats()["block_cache"] is None

    def test_the_block_cache_option_is_gone(self, tmp_path):
        with pytest.raises(TypeError):
            LSMStore(tmp_path / "db", block_cache_bytes=0)

    @needs_proc_fds
    @pytest.mark.parametrize("kind", ["inline", "manual", "background"])
    def test_compaction_leaves_no_deleted_table_open(self, tmp_path, kind):
        root = tmp_path / "db"
        make = {"inline": InlineScheduler, "manual": ManualScheduler, "background": BackgroundScheduler}
        scheduler = make[kind]()
        store = LSMStore(root, memtable_bytes=64 * 1024, scheduler=scheduler)
        try:
            for start in range(0, 3000, 100):
                store.put_many({f"k{i:05d}": b"v" * 1024 for i in range(start, start + 100)})
            _settle(scheduler)  # no merge in flight, so compact() queues one
            assert _open_sst_fds(root)["deleted"] == 0  # after the policy's merges
            store.compact()
            _settle(scheduler)
            assert store.stats()["sstables"] == 1
            assert store.size() == 3000
            assert _open_sst_fds(root) == {"live": 1, "deleted": 0}
        finally:
            store.close()
            scheduler.close()

    @needs_proc_fds
    def test_scan_started_before_a_merge_survives_it(self, tmp_path):
        root = tmp_path / "db"
        store = LSMStore(root, auto_compact=False)
        try:
            for table in range(4):
                store.put_many({f"t{table}-{i:03d}": b"v" * 100 for i in range(50)})
                store.flush()
            scan = store.keys()
            seen = [next(scan)]  # the scan has snapshotted the four tables
            assert store.compact() == 4
            assert _open_sst_fds(root) == {"live": 1, "deleted": 4}
            seen += list(scan)
            assert seen == sorted(f"t{t}-{i:03d}" for t in range(4) for i in range(50))
            del scan
            assert _open_sst_fds(root) == {"live": 1, "deleted": 0}
        finally:
            store.close()

    @needs_proc_fds
    def test_a_scan_outlives_the_store_and_then_leaks_nothing(self, tmp_path):
        root = tmp_path / "db"
        store = LSMStore(root, auto_compact=False)
        for table in range(3):
            store.put_many({f"t{table}-{i:03d}": b"v" * 100 for i in range(50)})
            store.flush()
        scan = store.keys()
        seen = [next(scan)]
        store.compact()
        store.close()  # closes the merged output; the scan holds the inputs
        assert _open_sst_fds(root) == {"live": 0, "deleted": 3}
        seen += list(scan)
        assert len(seen) == 150
        assert _open_sst_fds(root) == {"live": 0, "deleted": 0}

    @needs_proc_fds
    def test_readers_racing_background_merges(self, tmp_path):
        """Four readers and a rewriting writer over a store that flushes and
        merges in the background: every read sees the one value each key
        ever had, and no retired table stays open afterwards."""
        root = tmp_path / "db"
        scheduler = BackgroundScheduler()
        obs = Observability()
        store = LSMStore(root, memtable_bytes=32 * 1024, scheduler=scheduler, obs=obs)
        keys = [f"k{i:04d}" for i in range(400)]
        value = b"v" * 256
        store.put_many(dict.fromkeys(keys, value))
        done = threading.Event()
        failures: list[str] = []

        def read(seed: int) -> None:
            rng = random.Random(seed)
            while not done.is_set():
                key = rng.choice(keys)
                if store.get(key) != value:
                    failures.append(key)
                if rng.random() < 0.01 and sum(1 for _ in store.keys()) != len(keys):
                    failures.append("scan")

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        readers = [threading.Thread(target=read, args=(seed,)) for seed in range(4)]
        try:
            for thread in readers:
                thread.start()
            for _round in range(6):  # rewrites force flushes and merges
                store.put_many(dict.fromkeys(keys, value))
        finally:
            done.set()
            for thread in readers:
                thread.join(timeout=30.0)
            sys.setswitchinterval(previous)
        try:
            assert not any(thread.is_alive() for thread in readers)
            assert failures == []
            _settle(scheduler)
            assert obs.registry.counter("lsm.compactions").value > 0  # merges did race
            assert _open_sst_fds(root)["deleted"] == 0
        finally:
            store.close()
            scheduler.close()


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------
class TestManifest:
    def test_append_replay_roundtrip(self, tmp_path):
        path = tmp_path / MANIFEST_NAME
        manifest = Manifest(path)
        manifest.append(add=["000001-000.sst"])
        manifest.append(add=["000002-000.sst"])
        manifest.append(
            add=["000002-001.sst"],
            remove=["000001-000.sst", "000002-000.sst"],
        )
        manifest.close()
        replay = Manifest.replay(path)
        assert replay.tables == ["000002-001.sst"]
        assert replay.edits == 3
        assert replay.torn is False and replay.discarded_bytes == 0

    def test_replay_streams_the_file_like_the_wal_does(self, tmp_path, monkeypatch):
        path = tmp_path / MANIFEST_NAME
        manifest = Manifest(path)
        for i in range(2500):
            manifest.append(add=[f"{i:06d}-000.sst"], remove=[f"{i - 1:06d}-000.sst"])
        manifest.close()
        assert path.stat().st_size > 2 * wal_module.REPLAY_CHUNK_BYTES
        reads: list[int] = []

        class RecordingFile(io.FileIO):
            def read(self, n=-1):
                reads.append(n)
                return super().read(n)

        monkeypatch.setattr(wal_module, "_open", RecordingFile)
        assert Manifest.replay(path).tables == ["002499-000.sst"]
        assert set(reads) == {wal_module.REPLAY_CHUNK_BYTES}    # never slurps the file

    def test_add_order_is_preserved(self, tmp_path):
        path = tmp_path / MANIFEST_NAME
        manifest = Manifest(path)
        manifest.append(add=["b.sst", "c.sst"])
        manifest.append(add=["a.sst"])
        manifest.close()
        assert Manifest.replay(path).tables == ["b.sst", "c.sst", "a.sst"]

    def test_torn_tail_stops_replay_and_repairs(self, tmp_path):
        path = tmp_path / MANIFEST_NAME
        manifest = Manifest(path)
        manifest.append(add=["a.sst"])
        valid = manifest.size_bytes
        manifest.append(add=["b.sst"])
        manifest.close()
        blob = path.read_bytes()
        path.write_bytes(blob[: valid + 5])             # power loss mid-frame
        replay = Manifest.replay(path)
        assert replay.tables == ["a.sst"]
        assert replay.torn is True and replay.discarded_bytes == 5
        Manifest.repair(path, replay)
        again = Manifest.replay(path)
        assert again.torn is False and again.tables == ["a.sst"]

    def test_corrupt_frame_treated_as_torn(self, tmp_path):
        path = tmp_path / MANIFEST_NAME
        manifest = Manifest(path)
        manifest.append(add=["a.sst"])
        valid = manifest.size_bytes
        manifest.append(remove=["a.sst"])
        manifest.close()
        blob = bytearray(path.read_bytes())
        blob[valid + 10] ^= 0xFF                        # bit-flip the 2nd frame
        path.write_bytes(bytes(blob))
        replay = Manifest.replay(path)
        assert replay.tables == ["a.sst"]               # corrupt edit not applied
        assert replay.torn is True

    def test_create_rewrites_snapshot_atomically(self, tmp_path):
        path = tmp_path / MANIFEST_NAME
        stale = Manifest(path)
        stale.append(add=["dead.sst"])
        stale.close()
        manifest = Manifest.create(path, ["x.sst", "y.sst"])
        manifest.append(remove=["x.sst"])
        manifest.close()
        assert Manifest.replay(path).tables == ["y.sst"]
        assert not list(tmp_path.glob("*.manifest.tmp"))


class TestManifestRecovery:
    def test_manifest_tracks_flushes(self, tmp_path):
        root = tmp_path / "db"
        with LSMStore(root, auto_compact=False) as store:
            assert (root / MANIFEST_NAME).is_file()     # written on open
            store.put("a", 1)
            store.flush()
        (name,) = Manifest.replay(root / MANIFEST_NAME).tables
        assert (root / name).is_file()

    def test_compaction_swap_is_one_manifest_edit(self, tmp_path):
        root = tmp_path / "db"
        with LSMStore(root, auto_compact=False) as store:
            for batch in range(3):
                for i in range(10):
                    store.put(f"k{i}", batch)
                store.flush()
            store.compact()
            live = {t["file"] for t in store.stats()["tables"]}
        replay = Manifest.replay(root / MANIFEST_NAME)
        assert set(replay.tables) == live

    def test_stray_sst_rejected_on_open(self, tmp_path):
        """Crash window: flush/compaction output written, commit frame never
        appended -- the stray table must not be loaded (old state wins)."""
        root = tmp_path / "db"
        with LSMStore(root, auto_compact=False) as store:
            store.put("k", "committed")
            store.flush()
        # The stray holds raw bytes that would fail deserialization if the
        # store ever trusted it -- proof it is rejected, not just shadowed.
        write_sstable(root / "000001-001.sst", [(b"k", b"uncommitted")])
        events = EventLog()
        with LSMStore(root, obs=Observability(events=events)) as store:
            assert store.get("k") == "committed"
        assert not (root / "000001-001.sst").exists()
        (record,) = events.tail(kind="lsm_recovery")
        assert record["stray_ssts"] == 1

    def test_missing_committed_table_fails_open(self, tmp_path):
        root = tmp_path / "db"
        with LSMStore(root) as store:
            store.put("a", 1)
            store.flush()
        (sst,) = root.glob("*.sst")
        sst.unlink()
        with pytest.raises(DataStoreError, match="missing"):
            LSMStore(root)

    def test_pr4_directory_without_manifest_migrates(self, tmp_path):
        root = tmp_path / "db"
        with LSMStore(root, auto_compact=False) as store:
            for i in range(10):
                store.put(f"k{i}", i)
            store.flush()
            store.put("tail", "wal-only")
        (root / MANIFEST_NAME).unlink()                 # a PR-4-era directory
        events = EventLog()
        with LSMStore(root, obs=Observability(events=events)) as store:
            assert store.get("k3") == 3
            assert store.get("tail") == "wal-only"
        assert (root / MANIFEST_NAME).is_file()         # synthesized once
        record = events.tail(kind="lsm_recovery")[0]
        assert record["manifest_created"] is True
        # The next open trusts the manifest, no migration event.
        with LSMStore(root) as store:
            assert store.get("tail") == "wal-only"

    def test_torn_manifest_tail_repaired_on_open(self, tmp_path):
        root = tmp_path / "db"
        with LSMStore(root, auto_compact=False) as store:
            for i in range(10):
                store.put(f"k{i}", i)
            store.flush()
        with open(root / MANIFEST_NAME, "ab") as tail:
            tail.write(b"\xde\xad\xbe\xef")             # power loss mid-append
        events = EventLog()
        with LSMStore(root, obs=Observability(events=events)) as store:
            assert store.get("k7") == 7
        record = events.tail(kind="lsm_recovery")[0]
        assert record["manifest_torn"] is True
        assert record["manifest_discarded_bytes"] == 4
        replay = Manifest.replay(root / MANIFEST_NAME)  # rewritten clean
        assert replay.torn is False and len(replay.tables) == 1

    def test_crash_between_flush_commit_and_compaction_commit(self, tmp_path):
        """The PR-4 crash window the manifest closes: a compaction wrote its
        output but crashed before committing the swap.  The old tables must
        win -- no resurrected values, no lost keys."""
        root = tmp_path / "db"
        store = LSMStore(root, auto_compact=False)
        for batch in range(2):
            for i in range(20):
                store.put(f"k{i:02d}", batch)
            store.flush()
        snapshot = crash_copy(store, tmp_path)
        store.close()
        # Simulate the dead compaction's uncommitted output in the copy:
        # stale data under the name a real merge would have used.
        write_sstable(snapshot / "000002-001.sst", [(b"k00", b"stale-garbage")])
        with LSMStore(snapshot) as recovered:
            for i in range(20):
                assert recovered.get(f"k{i:02d}") == 1  # newest batch wins
        assert not (snapshot / "000002-001.sst").exists()

    def test_crash_after_compaction_commit_inputs_swept(self, tmp_path):
        """The mirror window: the swap frame is durable but the crash hit
        before the inputs were unlinked -- the output must win and the
        inputs must be swept, not resurrected."""
        root = tmp_path / "db"
        with LSMStore(root, auto_compact=False) as store:
            for batch in range(2):
                for i in range(20):
                    store.put(f"k{i:02d}", batch)
                store.flush()
        inputs = sorted(p.name for p in root.glob("*.sst"))
        assert len(inputs) == 2
        # Merge the inputs exactly as compaction would, commit the swap in
        # the manifest, but "crash" before unlinking the input files.
        tables = [SSTable(root / name) for name in inputs]
        entries = list(merge_tables(tables, drop_tombstones=True))
        for table in tables:
            table.close()
        write_sstable(root / "000002-001.sst", entries)
        manifest = Manifest(root / MANIFEST_NAME)
        manifest.append(add=["000002-001.sst"], remove=inputs)
        manifest.close()
        events = EventLog()
        with LSMStore(root, obs=Observability(events=events)) as recovered:
            for i in range(20):
                assert recovered.get(f"k{i:02d}") == 1
            assert recovered.stats()["sstables"] == 1
        for name in inputs:
            assert not (root / name).exists()
        record = events.tail(kind="lsm_recovery")[0]
        assert record["stray_ssts"] == 2


# ----------------------------------------------------------------------
# Durability satellites: directory fsync, orphan sweep, streaming replay
# ----------------------------------------------------------------------
def _recording_fsync(monkeypatch):
    """Monkeypatch ``os.fsync`` to record whether each fd is a directory."""
    real_fsync = os.fsync
    synced: list[bool] = []

    def recording(fd):
        synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", recording)
    return synced


class TestDirectoryFsync:
    def test_write_sstable_fsyncs_parent_directory(self, tmp_path, monkeypatch):
        synced = _recording_fsync(monkeypatch)
        write_sstable(tmp_path / "t.sst", [(b"a", b"1")], fsync=True)
        assert True in synced           # the rename itself was made durable
        assert synced.index(False) < synced.index(True)  # file first, then dir

    def test_write_sstable_without_fsync_skips_all_syncs(self, tmp_path, monkeypatch):
        synced = _recording_fsync(monkeypatch)
        write_sstable(tmp_path / "t.sst", [(b"a", b"1")])
        assert synced == []

    def test_filesystem_store_fsyncs_directory_on_put(self, tmp_path, monkeypatch):
        synced = _recording_fsync(monkeypatch)
        store = FileSystemStore(tmp_path / "fs", fsync=True)
        store.put("k", "v")
        assert True in synced
        store.close()

    def test_filesystem_store_without_fsync_skips_all_syncs(self, tmp_path, monkeypatch):
        synced = _recording_fsync(monkeypatch)
        store = FileSystemStore(tmp_path / "fs")
        store.put("k", "v")
        assert synced == []
        store.close()


class TestOrphanTmpSweep:
    def test_orphan_tmp_removed_on_open(self, tmp_path):
        root = tmp_path / "db"
        with LSMStore(root) as store:
            store.put("a", 1)
        # A crash mid-write_sstable strands the mkstemp file forever.
        (root / "tmp1a2b3c.sst.tmp").write_bytes(b"half a table")
        (root / "tmp9z8y7x.manifest.tmp").write_bytes(b"half a manifest")
        events = EventLog()
        with LSMStore(root, obs=Observability(events=events)) as store:
            assert store.get("a") == 1
        assert not list(root.glob("*.sst.tmp"))
        assert not list(root.glob("*.manifest.tmp"))
        record = events.tail(kind="lsm_recovery")[0]
        assert record["orphan_tmps"] == 2


class TestStreamingReplay:
    def test_replay_streams_in_bounded_chunks(self, tmp_path, monkeypatch):
        path = tmp_path / "big.log"
        wal = WriteAheadLog(path)
        for i in range(500):
            wal.append_put(b"key-%03d" % i, b"v" * 100)
        wal.close()
        file_size = path.stat().st_size
        chunk = 4096
        assert file_size > 10 * chunk   # big enough that slurping would show

        reads: list[int] = []
        real_open = wal_module._open

        class RecordingFile:
            def __init__(self, inner):
                self._inner = inner

            def read(self, n=-1):
                reads.append(n if n >= 0 else file_size)
                return self._inner.read(n)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._inner.close()
                return False

        monkeypatch.setattr(
            wal_module, "_open", lambda p, mode: RecordingFile(real_open(p, mode))
        )
        replay = WriteAheadLog.replay(path, chunk_size=chunk)
        assert len(replay.records) == 500
        assert replay.torn is False
        assert max(reads) <= chunk                       # never slurps the file
        assert len(reads) >= file_size // chunk          # genuinely chunked

    def test_replay_stops_at_header_claiming_more_than_the_file(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append_put(b"k", b"v")
        wal.close()
        with open(path, "ab") as handle:
            # A torn header whose length field claims 2 GB: replay must not
            # try to buffer it, just stop at the valid prefix.
            handle.write(struct.pack("<II", 0, 0x7FFF_FFFF))
        replay = WriteAheadLog.replay(path, chunk_size=1024)
        assert [record.key for record in replay.records] == [b"k"]
        assert replay.torn is True
        assert replay.discarded_bytes == 8

    def test_store_recovery_uses_streaming_replay(self, tmp_path, monkeypatch):
        store = LSMStore(tmp_path / "db")
        for i in range(200):
            store.put(f"key-{i:03d}", "x" * 200)
        crashed = crash_copy(store, tmp_path)
        store.close()

        reads: list[int] = []
        real_open = wal_module._open

        class RecordingFile:
            def __init__(self, inner):
                self._inner = inner

            def read(self, n=-1):
                reads.append(n)
                return self._inner.read(n)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._inner.close()
                return False

        monkeypatch.setattr(
            wal_module, "_open", lambda p, mode: RecordingFile(real_open(p, mode))
        )
        with LSMStore(crashed) as recovered:
            assert recovered.get("key-199") == "x" * 200
        assert reads and max(reads) <= wal_module.REPLAY_CHUNK_BYTES
