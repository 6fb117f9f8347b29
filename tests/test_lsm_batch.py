"""Batch operations of the LSM engine: ``put_many`` / ``delete_many`` ride
the commit pipeline as multi-record tickets, ``get_many`` reads under one
snapshot, and key scans stay out of the block cache.

Multi-thread cases are driven by the pipeline's ``_enqueue_hook`` seam and
a gated ``wal._fsync`` -- zero sleeps, deterministic batch shapes.
"""

from __future__ import annotations

import os
import shutil
import threading

import pytest

from repro.errors import StoreClosedError, WalPoisonedError
from repro.kv import LSMStore
from repro.lsm import CommitPipeline, WriteAheadLog
from repro.lsm import sstable
from repro.lsm import wal as wal_module
from repro.lsm.wal import OP_DELETE, OP_PUT
from repro.net.server import StoreServer
from repro.obs import Observability


def crash_copy(store, tmp_path, name="crashed"):
    """Simulate power loss: copy the live directory without closing."""
    target = tmp_path / name
    shutil.copytree(store.native(), target)
    return target


class TestMultiRecordTickets:
    def test_a_list_of_frames_is_one_ticket(self):
        batches, applied = [], []
        pipeline = CommitPipeline(batches.append)
        pipeline.submit([b"a", b"b", b"c"], lambda: applied.append("once"))
        assert batches == [[b"a", b"b", b"c"]]
        assert applied == ["once"]
        assert pipeline.stats() == {"batches": 1, "committed": 3, "largest_batch": 3}

    def test_record_bound_counts_records_not_tickets(self):
        """Followers are gathered while their records still fit the batch."""
        batches = []
        entered, go = threading.Event(), threading.Event()
        queued = threading.Semaphore(0)

        def commit(frames):
            batches.append(list(frames))
            if len(batches) == 1:
                entered.set()
                assert go.wait(timeout=5.0)

        pipeline = CommitPipeline(commit, max_batch_records=4)
        leader = threading.Thread(target=pipeline.submit, args=(b"lead",))
        leader.start()
        assert entered.wait(timeout=5.0)
        pipeline._enqueue_hook = queued.release
        followers = []
        for frames in ([b"a1", b"a2"], [b"b1", b"b2"], [b"c1"]):
            followers.append(threading.Thread(target=pipeline.submit, args=(frames,)))
            followers[-1].start()
            assert queued.acquire(timeout=5.0)  # enqueued, in this order
        go.set()
        for thread in followers + [leader]:
            thread.join(timeout=5.0)
            assert not thread.is_alive()
        assert batches == [[b"lead"], [b"a1", b"a2", b"b1", b"b2"], [b"c1"]]
        assert pipeline.stats() == {"batches": 3, "committed": 6, "largest_batch": 4}


class TestPutMany:
    def test_n_records_commit_in_ceil_n_over_chunk_batches(self, tmp_path):
        obs = Observability()
        with LSMStore(tmp_path / "db", wal_batch_records=8, obs=obs) as store:
            store.put_many({f"k{i:02d}": i for i in range(20)})
            assert store.stats()["group_commit"] == {
                "batches": 3,
                "committed": 20,
                "largest_batch": 8,
            }
            assert obs.registry.counter("lsm.wal.appends").value == 20
            assert obs.registry.counter("lsm.wal.group_commits").value == 3
            batch_records = obs.registry.histogram("lsm.wal.batch_records")
            assert (batch_records.count, batch_records.maximum) == (3, 8.0)
            assert store.get_many([f"k{i:02d}" for i in range(20)]) == {
                f"k{i:02d}": i for i in range(20)
            }

    def test_byte_bound_cuts_chunks(self, tmp_path):
        with LSMStore(tmp_path / "db", wal_batch_bytes=4096) as store:
            store.put_many({f"k{i}": b"x" * 1000 for i in range(9)})
            stats = store.stats()["group_commit"]
            assert stats["batches"] == 3 and stats["largest_batch"] == 3
            assert stats["committed"] == 9

    def test_empty_batch_commits_nothing(self, tmp_path):
        with LSMStore(tmp_path / "db") as store:
            store.put_many({})
            assert store.delete_many([]) == 0
            assert store.stats()["group_commit"]["batches"] == 0

    def test_every_record_keeps_its_own_frame(self, tmp_path):
        with LSMStore(tmp_path / "db") as store:
            store.put_many({"a": 1, "b": 2, "c": 3})
            assert store.delete_many(["b", "zz"]) == 1
            (segment,) = store.native().glob("wal-*.log")
            replay = WriteAheadLog.replay(segment)
        assert [(r.op, r.key) for r in replay.records] == [
            (OP_PUT, b"a"),
            (OP_PUT, b"b"),
            (OP_PUT, b"c"),
            (OP_DELETE, b"b"),
            (OP_DELETE, b"zz"),
        ]

    def test_chunks_end_where_the_memtable_budget_does(self, tmp_path):
        """A batch seals where the same records written singly would have,
        so both stores end up with identical tables."""
        items = {f"key-{i:04d}": b"v" * 200 for i in range(300)}
        with LSMStore(tmp_path / "many", memtable_bytes=16 * 1024) as many:
            many.put_many(items)
            batched = [(t["records"], t["bytes"]) for t in many.stats()["tables"]]
        with LSMStore(tmp_path / "single", memtable_bytes=16 * 1024) as single:
            for key, value in items.items():
                single.put(key, value)
            looped = [(t["records"], t["bytes"]) for t in single.stats()["tables"]]
        assert batched == looped and batched

    def test_visibility_order_is_wal_order_under_a_concurrent_writer(
        self, tmp_path, monkeypatch
    ):
        store = LSMStore(tmp_path / "db", fsync=True, wal_batch_records=2)
        entered, go = threading.Event(), threading.Event()
        queued = threading.Semaphore(0)
        calls = {"n": 0}

        def gated_fsync(fd):
            calls["n"] += 1
            if calls["n"] == 1:
                entered.set()
                assert go.wait(timeout=5.0)
            os.fsync(fd)

        monkeypatch.setattr(wal_module, "_fsync", gated_fsync)
        leader = threading.Thread(target=store.put, args=("x", 0))
        leader.start()
        assert entered.wait(timeout=5.0)
        store._pipeline._enqueue_hook = queued.release
        many = threading.Thread(
            target=store.put_many, args=({"a": 1, "b": 2, "k": "many", "c": 3},)
        )
        many.start()
        assert queued.acquire(timeout=5.0)  # chunk (a, b) is queued first
        single = threading.Thread(target=store.put, args=("k", "single"))
        single.start()
        assert queued.acquire(timeout=5.0)  # ... then the single put
        go.set()
        for thread in (leader, many, single):
            thread.join(timeout=5.0)
            assert not thread.is_alive()
        store._pipeline._enqueue_hook = None

        crashed = crash_copy(store, tmp_path)
        (segment,) = crashed.glob("wal-*.log")
        order = [
            (record.key, store._serializer.loads(record.value))
            for record in WriteAheadLog.replay(segment).records
        ]
        # The single put queued between the batch's two chunks.
        assert order == [
            (b"x", 0), (b"a", 1), (b"b", 2), (b"k", "single"), (b"k", "many"), (b"c", 3),
        ]
        assert store.get("k") == "many"  # what the log's last word says
        store.close()
        with LSMStore(crashed) as recovered:
            assert recovered.get("k") == "many"

    def test_sync_failure_fails_the_whole_call(self, tmp_path, monkeypatch):
        store = LSMStore(tmp_path / "db", fsync=True)
        store.put("acked", 1)
        armed = {"live": True}

        def failing_fsync(fd):
            if armed["live"]:
                armed["live"] = False
                raise OSError(5, "Input/output error")
            os.fsync(fd)

        monkeypatch.setattr(wal_module, "_fsync", failing_fsync)
        batch = {f"doomed-{i}": i for i in range(5)}
        with pytest.raises(WalPoisonedError):
            store.put_many(batch)
        assert store.get_many(list(batch)) == {}
        with pytest.raises(WalPoisonedError):
            store.delete_many(["acked"])
        assert store.get("acked") == 1
        crashed = crash_copy(store, tmp_path)
        store.close()
        with LSMStore(crashed) as recovered:
            assert sorted(recovered.keys()) == ["acked"]  # nothing replayed

    def test_closed_store_rejects_batches(self, tmp_path):
        store = LSMStore(tmp_path / "db")
        store.close()
        with pytest.raises(StoreClosedError):
            store.put_many({"k": 1})
        with pytest.raises(StoreClosedError):
            store.delete_many(["k"])


class TestDeleteMany:
    @staticmethod
    def history(store):
        """Keys at every level: SSTable, tombstoned, memtable, never written."""
        store.put_many({f"old-{i}": i for i in range(6)})
        store.flush()
        store.delete("old-1")
        store.flush()
        store.put_many({"old-2": "overwritten", "fresh-0": 0, "fresh-1": 1})
        store.delete("fresh-1")

    def test_return_value_equals_the_per_key_loop(self, tmp_path):
        keys = [
            "old-0", "old-1", "old-2", "fresh-0", "fresh-1", "never",
            "old-0",  # a duplicate: already deleted by the time it comes up
            "old-5", "never-2",
        ]
        with LSMStore(tmp_path / "loop") as loop:
            self.history(loop)
            expected = sum(1 for key in keys if loop.delete(key))
            left = sorted(loop.keys())
        with LSMStore(tmp_path / "many", wal_batch_records=4) as many:
            self.history(many)
            assert many.delete_many(keys) == expected == 4
            assert sorted(many.keys()) == left == ["old-3", "old-4"]

    def test_single_delete_reports_existence(self, tmp_path):
        with LSMStore(tmp_path / "db") as store:
            self.history(store)
            assert store.delete("old-0") is True
            assert store.delete("old-0") is False
            assert store.delete("old-1") is False
            assert store.delete("never") is False


class TestGetMany:
    def test_matches_per_key_reads_at_every_level(self, tmp_path):
        obs = Observability()
        with LSMStore(tmp_path / "db", obs=obs) as store:
            TestDeleteMany.history(store)
            keys = ["old-0", "old-1", "old-2", "fresh-0", "fresh-1", "never"]
            assert store.get_many(keys) == {
                "old-0": 0, "old-2": "overwritten", "fresh-0": 0,
            }
            counter = obs.registry.counter
            assert counter("lsm.read.level_hits.memtable").value == 3
            assert counter("lsm.read.level_hits.sstable").value == 2
            assert counter("lsm.read.misses").value == 1

    def test_mget_is_one_get_many(self, tmp_path):
        calls = []

        class Recording(LSMStore):
            def get_many(self, keys):
                calls.append(list(keys))
                return super().get_many(keys)

            def get(self, key):  # pragma: no cover - must not be reached
                raise AssertionError("MGET fell back to per-key reads")

        with Recording(tmp_path / "db") as store:
            store.put_many({"a": b"1", "b": b"2", "n": 7})
            server = StoreServer(store)
            reply, keep_open = server.dispatch([b"MGET", b"a", b"zz", b"b", b"n", b"a"], None)
        assert keep_open
        assert reply == b"*5\r\n$1\r\n1\r\n$-1\r\n$1\r\n2\r\n$-1\r\n$1\r\n1\r\n"
        assert calls == [["a", "zz", "b", "n", "a"]]


class TestKeyScans:
    @staticmethod
    def loaded(tmp_path):
        """Three tables, with deletes and a rewrite in the memtable on top."""
        store = LSMStore(tmp_path / "db", auto_compact=False)
        for table in range(3):
            store.put_many({f"t{table}-{i:03d}": b"v" * 100 for i in range(200)})
            store.flush()
        store.delete_many(["t0-000", "t1-000"])
        store.put("t2-000", b"rewritten")
        return store

    def test_stats_dbsize_and_keys_scan_keys_only(self, tmp_path, monkeypatch):
        store = self.loaded(tmp_path)
        try:
            server = StoreServer(store)
            real_records = sstable._records
            modes = []

            def records(block, values=True):
                modes.append(values)
                return real_records(block, values)

            monkeypatch.setattr(sstable, "_records", records)
            for command in ([b"STATS"], [b"DBSIZE"], [b"KEYS"]):
                reply, _ = server.dispatch(command, None)
                assert not reply.startswith(b"-")
            assert server.dispatch([b"DBSIZE"], None)[0] == b":598\r\n"
            assert list(store.keys_with_prefix("t1-00")) == [
                f"t1-{i:03d}" for i in range(1, 10)
            ]
            assert modes and not any(modes)  # no value sliced out of a block
        finally:
            store.close()

    def test_size_counts_live_keys_only(self, tmp_path):
        store = self.loaded(tmp_path)
        try:
            assert store.size() == 598 == sum(1 for _ in store.keys())
            assert "t0-000" not in store and store.get("t2-000") == b"rewritten"
        finally:
            store.close()
