"""Flush and compaction tasks: where they run and what a failure leaves.

Two contracts, both checked with zero sleeps:

* a flush (and the compaction it triggers) is submitted after the store
  lock is released, so with the inline scheduler readers are never stalled
  behind an SSTable write or a merge;
* a task that raises is journalled (``lsm_task_failed``) and counted
  (``lsm.tasks.failed``) whatever scheduler runs it, and still raises to
  whoever runs it inline.
"""

from __future__ import annotations

import threading

import pytest

from repro.kv import LSMStore
from repro.lsm import BackgroundScheduler, InlineScheduler, ManualScheduler
from repro.lsm import store as store_module
from repro.obs import EventLog, Observability


class ReaderCheckingScheduler(InlineScheduler):
    """Inline scheduler that, before running each task, asserts the store
    lock is free and that a ``get`` from another thread completes."""

    def __init__(self) -> None:
        self.store: LSMStore | None = None
        self.checked = 0

    def submit(self, task) -> None:
        store = self.store
        assert not store._lock._is_owned(), "task submitted under the store lock"
        reads: list[object] = []
        reader = threading.Thread(target=lambda: reads.append(store.get("anchor")))
        reader.start()
        reader.join(timeout=10.0)
        assert not reader.is_alive(), "a reader blocked while the task was due"
        assert reads == ["kept"]
        self.checked += 1
        task()


class TestInlineTasksRunOffTheLock:
    def test_readers_proceed_during_flush_and_compaction(self, tmp_path):
        scheduler = ReaderCheckingScheduler()
        obs = Observability()
        store = LSMStore(
            tmp_path / "db", memtable_bytes=256, scheduler=scheduler, obs=obs
        )
        scheduler.store = store
        try:
            store.put("anchor", "kept")
            for i in range(40):  # size-triggered seals at batch boundaries
                store.put(f"key-{i:03d}", "x" * 32)
            store.put("tail", "y")
            store.flush()  # the barrier's seal
            flushes = obs.registry.counter("lsm.memtable.flushes").value
            compactions = obs.registry.counter("lsm.compactions").value
            assert flushes >= 5 and compactions >= 1
            # every flush and every compaction went through the check
            assert scheduler.checked == flushes + compactions
            assert store.get("key-039") == "x" * 32
        finally:
            store.close()


def _failing_write_sstable(*args, **kwargs):
    raise OSError("disk full")


def _failure_records(events: EventLog) -> list[dict]:
    return [
        {key: record[key] for key in ("task", "error", "message")}
        for record in events.tail(kind="lsm_task_failed")
    ]


class TestTaskFailuresAreReported:
    def test_background_flush_failure_is_journalled_and_counted(self, tmp_path, monkeypatch):
        monkeypatch.setattr(store_module, "write_sstable", _failing_write_sstable)
        events = EventLog()
        obs = Observability(events=events)
        scheduler = BackgroundScheduler()
        try:
            with LSMStore(tmp_path / "db", scheduler=scheduler, obs=obs) as store:
                store.put("k", "v")
                store.flush()  # returns: the flush is queued, then fails
                assert scheduler.drain(timeout=10.0)
                assert _failure_records(events) == [
                    {"task": "flush", "error": "OSError", "message": "disk full"}
                ]
                assert obs.registry.counter("lsm.tasks.failed").value == 1
                # The sealed memtable is stranded, still readable, and its
                # WAL segment stays on disk for the next open to replay.
                assert store.stats()["immutable_memtables"] == 1
                assert store.get("k") == "v"
        finally:
            scheduler.close()
        monkeypatch.undo()
        with LSMStore(tmp_path / "db") as reopened:
            assert reopened.get("k") == "v"

    def test_manual_flush_failure_raises_from_run_pending(self, tmp_path, monkeypatch):
        monkeypatch.setattr(store_module, "write_sstable", _failing_write_sstable)
        events = EventLog()
        obs = Observability(events=events)
        scheduler = ManualScheduler()
        with LSMStore(tmp_path / "db", scheduler=scheduler, obs=obs) as store:
            store.put("k", "v")
            store.flush()
            with pytest.raises(OSError, match="disk full"):
                scheduler.run_pending()
            assert _failure_records(events) == [
                {"task": "flush", "error": "OSError", "message": "disk full"}
            ]
            assert obs.registry.counter("lsm.tasks.failed").value == 1

    def test_inline_failure_still_reaches_the_caller(self, tmp_path, monkeypatch):
        monkeypatch.setattr(store_module, "write_sstable", _failing_write_sstable)
        events = EventLog()
        with LSMStore(tmp_path / "db", obs=Observability(events=events)) as store:
            store.put("k", "v")
            with pytest.raises(OSError, match="disk full"):
                store.flush()
            assert [r["task"] for r in events.tail(kind="lsm_task_failed")] == ["flush"]
            assert store.get("k") == "v"

    def test_compaction_failure_names_its_task(self, tmp_path, monkeypatch):
        events = EventLog()
        scheduler = ManualScheduler()
        with LSMStore(
            tmp_path / "db",
            scheduler=scheduler,
            auto_compact=False,
            obs=Observability(events=events),
        ) as store:
            for i in range(2):
                store.put(f"k{i}", i)
                store.flush()
            scheduler.run_pending()
            monkeypatch.setattr(store_module, "write_sstable", _failing_write_sstable)
            store.compact()
            with pytest.raises(OSError, match="disk full"):
                scheduler.run_pending()
            assert [r["task"] for r in events.tail(kind="lsm_task_failed")] == ["compact"]
            assert store.get("k1") == 1
