"""Size-tiered compaction: merging runs so reads stay fast.

Every memtable flush adds one SSTable, and every SSTable is one more file
a read may have to probe.  Compaction merges several tables of similar
size into one, reclaiming space held by overwritten values and (when safe)
tombstones, and keeping the table count -- and therefore worst-case read
amplification -- bounded.

Policy
------
:class:`SizeTieredPolicy` is the classic size-tiered scheme: tables are
bucketed by size (each bucket spans ``bucket_low``..``bucket_high`` times
the bucket's average), and any bucket holding at least ``min_tables``
tables is a merge candidate (largest eligible bucket first, at most
``max_tables`` per merge).  Newly flushed tables are similar in size, so
they tier up naturally: four small tables merge into one medium, four
mediums into one large, and so on.

Tombstone reclamation
---------------------
A tombstone can only be dropped when no older run might still hold a
version of its key -- otherwise the delete would "resurrect" the old
value.  :func:`merge_tables` therefore drops tombstones only when told the
merge includes the oldest run in the store.

Schedulers
----------
Compaction work is submitted to an injectable scheduler, so the policy is
decoupled from *where* the work runs:

* :class:`InlineScheduler` -- run in the calling thread, immediately (the
  default: deterministic, no background machinery);
* :class:`ManualScheduler` -- queue tasks until :meth:`ManualScheduler.run_pending`
  is called (tests drive compaction step by step, nothing ever sleeps);
* :class:`BackgroundScheduler` -- one daemon worker thread fed by a
  blocking queue (true background compaction; no polling, no sleeps).
"""

from __future__ import annotations

import heapq
import queue
import threading
from typing import Callable, Iterator, Sequence

from ..errors import ConfigurationError
from .memtable import TOMBSTONE, Tombstone
from .sstable import SSTable

__all__ = [
    "SizeTieredPolicy",
    "merge_tables",
    "merge_runs",
    "InlineScheduler",
    "ManualScheduler",
    "BackgroundScheduler",
]


class SizeTieredPolicy:
    """Pick which SSTables to merge, by size tier."""

    def __init__(
        self,
        *,
        min_tables: int = 4,
        max_tables: int = 10,
        bucket_low: float = 0.5,
        bucket_high: float = 1.5,
    ) -> None:
        if min_tables < 2:
            raise ConfigurationError("min_tables must be at least 2")
        if max_tables < min_tables:
            raise ConfigurationError("max_tables must be >= min_tables")
        self.min_tables = min_tables
        self.max_tables = max_tables
        self.bucket_low = bucket_low
        self.bucket_high = bucket_high

    def select(self, tables: Sequence[SSTable]) -> list[SSTable]:
        """Tables to merge now, or ``[]`` when no tier is crowded enough.

        *tables* must be in age order (oldest first); the returned subset
        is an **age-contiguous run** of that order.  Contiguity is a
        correctness requirement, not a preference: the merged output takes
        the newest input's place in the age order, so merging a set that
        skips over a middle table would lift the older inputs' versions of
        a key above the skipped table's newer version (resurrecting
        overwritten values and deleted keys).
        """
        buckets: list[tuple[float, list[SSTable]]] = []  # (avg size, members)
        for table in sorted(tables, key=lambda t: t.size_bytes):
            for index, (average, members) in enumerate(buckets):
                if self.bucket_low * average <= table.size_bytes <= self.bucket_high * average:
                    members.append(table)
                    total = average * (len(members) - 1) + table.size_bytes
                    buckets[index] = (total / len(members), members)
                    break
            else:
                buckets.append((float(table.size_bytes), [table]))
        position = {id(table): index for index, table in enumerate(tables)}
        runs: list[list[SSTable]] = []
        for _avg, members in buckets:
            if len(members) < self.min_tables:
                continue
            # Split the size bucket into maximal runs that are contiguous
            # in the store's age order; only such a run is safe to merge.
            ordered = sorted(members, key=lambda t: position[id(t)])
            run = [ordered[0]]
            for table in ordered[1:]:
                if position[id(table)] == position[id(run[-1])] + 1:
                    run.append(table)
                else:
                    runs.append(run)
                    run = [table]
            runs.append(run)
        eligible = [run for run in runs if len(run) >= self.min_tables]
        if not eligible:
            return []
        # Trim from the newest end so the run stays contiguous (and keeps
        # its chance of being an oldest-first prefix, which is what lets
        # the merge drop tombstones).
        return max(eligible, key=len)[: self.max_tables]


def merge_tables(
    tables: Sequence[SSTable], *, drop_tombstones: bool
) -> Iterator[tuple[bytes, "bytes | Tombstone"]]:
    """K-way merge of *tables* (oldest first) into one sorted entry stream."""
    runs = [table.items() for table in tables]
    return merge_runs(runs, drop_tombstones=drop_tombstones)


def merge_runs(
    runs: Sequence[Iterator[tuple[bytes, "bytes | Tombstone"]]], *, drop_tombstones: bool
) -> Iterator[tuple[bytes, "bytes | Tombstone"]]:
    """K-way merge of sorted *runs* (oldest first) into one sorted stream.

    For duplicate keys the entry from the newest run wins.  Tombstones
    pass through unless *drop_tombstones* is true, which is only safe when
    the merge includes the store's oldest run (nothing below could still
    hold a shadowed version).
    """
    # Heap entries: (key, -age, value, iterator). Newer runs get a smaller
    # second element, so for equal keys the newest source pops first and
    # older duplicates are skipped.
    heap: list[tuple[bytes, int, "bytes | Tombstone", Iterator]] = []
    for age, iterator in enumerate(runs):
        first = next(iterator, None)
        if first is not None:
            heapq.heappush(heap, (first[0], -age, first[1], iterator))
    previous: bytes | None = None
    while heap:
        key, neg_age, value, iterator = heapq.heappop(heap)
        following = next(iterator, None)
        if following is not None:
            heapq.heappush(heap, (following[0], neg_age, following[1], iterator))
        if key == previous:
            continue  # an older run's version of a key already emitted
        previous = key
        if isinstance(value, Tombstone):
            if not drop_tombstones:
                yield key, TOMBSTONE
            continue
        yield key, value


# ----------------------------------------------------------------------
# Schedulers
# ----------------------------------------------------------------------
class InlineScheduler:
    """Run submitted work immediately in the calling thread."""

    def submit(self, task: Callable[[], None]) -> None:
        task()

    def pending(self) -> int:
        return 0

    def close(self) -> None:
        return None


class ManualScheduler:
    """Queue submitted work until :meth:`run_pending` is called.

    The test harness's scheduler: flushes and compactions happen exactly
    when the test says so, and nothing ever sleeps.
    """

    def __init__(self) -> None:
        self._tasks: list[Callable[[], None]] = []

    def submit(self, task: Callable[[], None]) -> None:
        self._tasks.append(task)

    def pending(self) -> int:
        return len(self._tasks)

    def run_pending(self) -> int:
        """Run every queued task (tasks queued *by* tasks run too)."""
        executed = 0
        while self._tasks:
            task = self._tasks.pop(0)
            task()
            executed += 1
        return executed

    def close(self) -> None:
        self._tasks.clear()


class BackgroundScheduler:
    """One daemon worker draining a blocking queue -- no polling, no sleeps."""

    def __init__(self, name: str = "lsm-compaction") -> None:
        self._queue: "queue.Queue[Callable[[], None] | None]" = queue.Queue()
        self._idle = threading.Event()
        self._idle.set()
        self._worker = threading.Thread(target=self._run, name=name, daemon=True)
        self._worker.start()

    def _run(self) -> None:
        while True:
            task = self._queue.get()
            if task is None:
                return
            self._idle.clear()
            try:
                task()
            except Exception:  # noqa: BLE001 - the store journalled it (lsm_task_failed)
                pass
            finally:
                # Drop the finished task before reporting idle: a merge's
                # closure holds its input tables, whose descriptors close
                # only with the last reference.
                del task
                if self._queue.unfinished_tasks <= 1:
                    self._idle.set()
                self._queue.task_done()

    def submit(self, task: Callable[[], None]) -> None:
        self._idle.clear()
        self._queue.put(task)

    def pending(self) -> int:
        return self._queue.qsize()

    def drain(self, timeout: float | None = None) -> bool:
        """Block until queued work is done (True) or *timeout* elapses."""
        return self._idle.wait(timeout)

    def close(self) -> None:
        self._queue.put(None)
        self._worker.join(timeout=5.0)
