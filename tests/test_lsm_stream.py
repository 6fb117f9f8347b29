"""Flush and compaction stream their SSTable: bounded memory, same bytes.

``write_sstable`` takes any iterable in one pass and holds only the write
buffer and the keys, and compaction feeds it the merge as a generator, so
a merge's traced peak is a small fraction of its output.  Zero sleeps.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.kv import LSMStore
from repro.lsm import store as store_module
from repro.lsm import write_sstable
from repro.lsm.manifest import MANIFEST_NAME, Manifest
from repro.obs import EventLog, Observability

from .test_lsm_golden import SSTABLE_HEX, _RawBytes, sstable_entries

VALUE = b"v" * 1024


def _loaded_store(root, *, records: int, events: EventLog | None = None) -> LSMStore:
    """A store holding *records* x 1 KiB in several flushed, unmerged tables."""
    store = LSMStore(
        root,
        serializer=_RawBytes(),
        memtable_bytes=1 << 20,
        auto_compact=False,
        obs=Observability(events=events) if events is not None else None,
    )
    for start in range(0, records, 500):
        store.put_many({f"key-{i:06d}": VALUE for i in range(start, min(start + 500, records))})
    store.flush()
    return store


class TestMergeMemory:
    def test_forced_compaction_peaks_far_below_its_output(self, tmp_path):
        # ~8 MiB of 1 KiB values; materialising the merge peaks above 100 %.
        with _loaded_store(tmp_path / "db", records=8000) as store:
            assert store.stats()["sstables"] >= 4
            tracemalloc.start()
            try:
                assert store.compact() >= 4
                _current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            stats = store.stats()
            assert (stats["sstables"], stats["sstable_records"]) == (1, 8000)
            assert peak < 0.15 * stats["sstable_bytes"], (peak, stats["sstable_bytes"])


class TestStreamedBytes:
    def test_generator_and_list_write_the_same_file(self, tmp_path):
        listed = write_sstable(tmp_path / "list.sst", sstable_entries(), index_interval=4)
        streamed = write_sstable(
            tmp_path / "gen.sst", (entry for entry in sstable_entries()), index_interval=4
        )
        assert streamed.read_bytes() == listed.read_bytes()
        assert streamed.read_bytes().hex() == SSTABLE_HEX


class TestCompactEvent:
    def test_tombstone_only_merge_writes_no_table(self, tmp_path):
        events = EventLog()
        root = tmp_path / "db"
        with LSMStore(
            root, auto_compact=False, obs=Observability(events=events)
        ) as store:
            store.put_many({f"k{i}": i for i in range(10)})
            store.flush()
            store.delete_many([f"k{i}" for i in range(10)])
            store.flush()
            assert store.stats()["sstables"] == 2
            assert store.compact() == 2
            (event,) = events.tail(kind="lsm_compact")
            assert (event["records"], event["output"]) == (0, None)
            assert store.stats()["sstables"] == 0
            assert Manifest.replay(root / MANIFEST_NAME).tables == []
            assert list(root.glob("*.sst*")) == []
            assert store.size() == 0

    def test_records_is_the_output_record_count(self, tmp_path):
        events = EventLog()
        with LSMStore(
            tmp_path / "db", auto_compact=False, obs=Observability(events=events)
        ) as store:
            store.put_many({f"k{i}": i for i in range(30)})
            store.flush()
            store.put_many({f"k{i}": -i for i in range(20, 40)})
            store.delete_many(["k0", "k1"])
            store.flush()
            store.compact()
            (event,) = events.tail(kind="lsm_compact")
            (table,) = store.stats()["tables"]
            assert event["output"] == table["file"]
            assert event["records"] == table["records"] == 38


class TestMidStreamFailure:
    def test_failed_merge_leaves_inputs_live_and_no_temp_file(self, tmp_path, monkeypatch):
        real_merge = store_module.merge_tables

        def failing_merge(tables, *, drop_tombstones):
            # Past the 64 KiB join buffer, so part of the table is on disk.
            for count, entry in enumerate(real_merge(tables, drop_tombstones=drop_tombstones)):
                if count == 200:
                    raise OSError("read error")
                yield entry

        events = EventLog()
        root = tmp_path / "db"
        with _loaded_store(root, records=2000, events=events) as store:
            inputs = sorted(path.name for path in root.glob("*.sst"))
            assert len(inputs) >= 2
            monkeypatch.setattr(store_module, "merge_tables", failing_merge)
            with pytest.raises(OSError, match="read error"):
                store.compact()
            assert list(root.glob("*.sst.tmp")) == []
            assert sorted(path.name for path in root.glob("*.sst")) == inputs
            assert sorted(Manifest.replay(root / MANIFEST_NAME).tables) == inputs
            assert [r["task"] for r in events.tail(kind="lsm_task_failed")] == ["compact"]
            assert store.get("key-001999") == VALUE
            assert store.size() == 2000

            monkeypatch.undo()
            assert store.compact() == len(inputs)
            assert store.stats()["sstables"] == 1
            assert store.get("key-000000") == VALUE
