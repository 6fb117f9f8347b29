"""Backend face-off: the LSM engine against the other embedded durable stores.

The LSM engine exists because :class:`~repro.kv.filesystem.FileSystemStore`
pays a file create per write and :class:`~repro.kv.sqlstore.SQLStore` pays
a SQL commit per write.  This figure measures what that buys: per-operation
write, read, and prefix-scan latency for each embedded durable backend on
the same 1 KB workload, recorded sample-by-sample so the JSON summary
(``results/BENCH_backend_lsm.json``) carries real p50/p95/p99 tails and
derived throughput.

Shape check: LSM writes (one WAL append + one dict update) must beat the
file-per-key backend at 1 KB.
"""

from __future__ import annotations

import os
import random
import statistics
import threading
import time
import tracemalloc

import pytest

from repro.caching.bloom import BloomFilter
from repro.kv import FileSystemStore, LSMStore, SQLStore
from repro.obs import EventLog, Observability

FIGURE = "backend_lsm"
OPERATIONS = 1_000
VALUE_SIZE = 1_024
BACKENDS = ("lsm", "file", "sql")

FSYNC_WRITERS = 8
FSYNC_ROUNDS = 7
FSYNC_PER_OP_OPS = 200       # per round (25 per writer, one sync each)
FSYNC_GROUP_OPS = 400        # per round (50 per writer, batched syncs)
FSYNC_VALUE_SIZE = 128       # durability-bound workloads are small records

BULK_BATCH = 500             # records per put_many (the spine's MSET size)
BULK_BATCHES = 20
BLOOM_KEY_COUNTS = (1_000, 30_000)
MERGE_RECORDS = 30_000       # one forced merge of this many 1 KiB values
COLD_KEYS = 30_000           # the e2e spine's cold read: 1 KiB values, 7 tables
COLD_READS = 5_000           # timed gets (after as many warm-up gets)
MERGE_PEAK_SHARE = 0.15      # traced peak / output bytes the merge may reach

NOTE = (
    f"Embedded durable backends, {OPERATIONS} ops of {VALUE_SIZE} B values; "
    "per-op samples (x = value bytes), so p50/p95/p99 in the JSON are true "
    "tail latencies.  Series: <backend>_write / _read / _scan "
    "(scan = one full keys_with_prefix pass per sample).  "
    f"lsm_read_cold = the e2e spine's cold read in process: {COLD_KEYS} "
    f"x {VALUE_SIZE} B loaded by put_many into a 1 MiB memtable (7 "
    "tables, read through the OS page cache), "
    f"{COLD_READS} uniform gets timed after {COLD_READS} warm-up gets.  "
    f"lsm_fsync_* measure durable writes ({FSYNC_VALUE_SIZE} B records, "
    f"x = record bytes, {FSYNC_ROUNDS} interleaved rounds of "
    f"{FSYNC_WRITERS} concurrent writers each): _per_op_write = the "
    "pre-group-commit engine (wal_batch_records=1, one disk sync per "
    "put); _group_write = the same workload through the commit "
    "pipeline.  *_amortized = wall-clock/ops per round, the honest "
    "aggregate per-op cost whose derived throughput is the multi-writer "
    "number; lsm_fsync_speedup = per-op/group median ratio, "
    "dimensionless (target >= 3x, enforced only under BENCH_LSM_STRICT "
    "-- wall-clock ratios are hardware claims and CI disks are noisy).  "
    f"lsm_put_many / lsm_put_many_fsync = bulk load, one sample per "
    f"put_many of {BULK_BATCH} x {VALUE_SIZE} B records, y = batch "
    "wall-clock / records (so throughput_ops_per_s is records/s), "
    "memtable flushes and compactions included.  bloom_add / "
    "bloom_probe_hit / bloom_probe_miss: x = keys in a 1 % filter (not "
    "a value size), y = mean per call over that many keys -- flat in x "
    "since the bit array became a bytearray.  "
    "lsm_compaction_peak_mib / lsm_compaction_output_mib: one forced "
    f"compact() of x = {MERGE_RECORDS} records of {VALUE_SIZE} B "
    "(memtable 1 MiB, so ~30 input tables); y = MiB, not ms -- the "
    "tracemalloc peak of the merge beside the output table's size "
    f"(asserted peak <= {MERGE_PEAK_SHARE:g} x output: flush and "
    "compaction stream their table; throughput_ops_per_s is meaningless "
    "for these two)."
)

# Written by test_fsync_write_path, asserted by the shape test below --
# medians over interleaved rounds, so a load spike mid-bench hits both
# sides instead of one.
_fsync_results: dict[str, list[float]] = {"per_op": [], "group": []}


def make_store(name, root):
    if name == "lsm":
        return LSMStore(root / "kv.lsm")
    if name == "file":
        return FileSystemStore(root / "fs")
    return SQLStore(str(root / "bench.db"))


def payload_for(index: int) -> str:
    return f"{index:08d}" + "x" * (VALUE_SIZE - 8)


def _run_fsync_round(store, series, collector, ops, tag):
    """Drive ``ops`` durable puts through 8 concurrent writers.

    Returns wall-clock/ops.  Per-waiter latencies are buffered locally
    in each worker and recorded only after the join, so the collector's
    bookkeeping never competes for the GIL inside the timed window.
    """
    value = "v" * FSYNC_VALUE_SIZE
    per_writer = ops // FSYNC_WRITERS
    barrier = threading.Barrier(FSYNC_WRITERS + 1)
    samples: list[list[float]] = [[] for _ in range(FSYNC_WRITERS)]

    def worker(w: int) -> None:
        mine = samples[w]
        barrier.wait(timeout=60.0)
        for i in range(per_writer):
            start = time.perf_counter()
            store.put(f"bench-{tag}-w{w}-{i:05d}", value)
            mine.append(time.perf_counter() - start)

    threads = [
        threading.Thread(target=worker, args=(w,))
        for w in range(FSYNC_WRITERS)
    ]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=60.0)
    wall_start = time.perf_counter()
    for thread in threads:
        thread.join(timeout=60.0)
    wall = time.perf_counter() - wall_start
    for mine in samples:
        for elapsed in mine:
            collector.record(FIGURE, series, FSYNC_VALUE_SIZE, elapsed)
    return wall / ops


def test_fsync_write_path(benchmark, collector, tmp_path):
    """Durable (``fsync=True``) writes: per-op sync vs group commit.

    Both sides run the same 8-writer workload.  The baseline store sets
    ``wal_batch_records=1`` -- the pre-group-commit engine, one disk
    sync per put -- while the group store batches frames behind shared
    syncs.  ``lsm_fsync_per_op_write`` / ``lsm_fsync_group_write``
    record what each waiter experiences; ``*_amortized`` record
    wall-clock/ops per round, the honest aggregate per-op cost whose
    derived throughput is the multi-writer number.  Rounds interleave
    so disk-latency drift lands on both series alike.
    """
    benchmark.group = "backend-lsm-write"
    obs = Observability()
    per_op_store = LSMStore(tmp_path / "per_op.lsm", fsync=True, wal_batch_records=1)
    group = LSMStore(tmp_path / "group.lsm", fsync=True, obs=obs)

    def run() -> None:
        for round_number in range(FSYNC_ROUNDS):
            _fsync_results["per_op"].append(_run_fsync_round(
                per_op_store, "lsm_fsync_per_op_write", collector,
                FSYNC_PER_OP_OPS, f"p{round_number}"))
            _fsync_results["group"].append(_run_fsync_round(
                group, "lsm_fsync_group_write", collector,
                FSYNC_GROUP_OPS, f"g{round_number}"))

    benchmark.pedantic(run, rounds=1)

    for name, rounds in _fsync_results.items():
        for amortized in rounds:
            collector.record(FIGURE, f"lsm_fsync_{name}_amortized",
                             FSYNC_VALUE_SIZE, amortized)
    # Group commit must actually have batched: far fewer syncs than appends.
    appends = obs.registry.counter("lsm.wal.appends").value
    commits = obs.registry.counter("lsm.wal.group_commits").value
    assert appends == FSYNC_GROUP_OPS * FSYNC_ROUNDS
    assert 0 < commits < appends
    per_op_store.close()
    group.close()


def test_fsync_group_commit_beats_per_op_sync(benchmark, collector):
    """Shape: with 8 concurrent writers, group commit must amortize to
    cheaper per op than the one-sync-per-op engine.  Medians over
    interleaved rounds keep a one-off disk-latency spike from deciding
    the verdict.

    The structural guarantee (far fewer syncs than appends) is asserted
    unconditionally in ``test_fsync_write_path``; the wall-clock speedup
    is recorded in the JSON as ``lsm_fsync_speedup`` for readers of the
    figure.  The >= 3x acceptance bar is a hardware claim -- on a slow,
    noisy, or virtualized CI disk the amortization ratio can dip below
    3x without the engine being wrong -- so it is enforced only when
    ``BENCH_LSM_STRICT`` is set (how the acceptance run is driven).
    """
    benchmark.group = "backend-lsm-write"
    benchmark.pedantic(lambda: None, rounds=1)
    assert len(_fsync_results["per_op"]) == FSYNC_ROUNDS
    assert len(_fsync_results["group"]) == FSYNC_ROUNDS
    per_op = statistics.median(_fsync_results["per_op"])
    amortized = statistics.median(_fsync_results["group"])
    speedup = per_op / amortized
    # record() scales seconds -> ms; pre-divide so the JSON carries the
    # raw, dimensionless ratio.
    collector.record(FIGURE, "lsm_fsync_speedup", FSYNC_VALUE_SIZE, speedup / 1e3)
    if os.environ.get("BENCH_LSM_STRICT"):
        assert speedup >= 3.0
    # The JSON carries both sides of the ratio for readers of the figure.
    assert collector.mean_at(FIGURE, "lsm_fsync_per_op_amortized",
                             FSYNC_VALUE_SIZE) is not None
    assert collector.mean_at(FIGURE, "lsm_fsync_group_amortized",
                             FSYNC_VALUE_SIZE) is not None


@pytest.mark.parametrize("name", BACKENDS)
def test_write_path(benchmark, collector, tmp_path, name):
    store = make_store(name, tmp_path)
    benchmark.group = "backend-lsm-write"

    def run() -> None:
        for i in range(OPERATIONS):
            value = payload_for(i)
            start = time.perf_counter()
            store.put(f"bench-{i:05d}", value)
            collector.record(FIGURE, f"{name}_write", VALUE_SIZE,
                             time.perf_counter() - start)

    benchmark.pedantic(run, rounds=1)
    collector.note(FIGURE, NOTE)
    store.close()


@pytest.mark.parametrize("fsync", (False, True), ids=("fsync_off", "fsync_on"))
def test_bulk_load(benchmark, collector, tmp_path, fsync):
    """``put_many`` of 500 x 1 KiB: one WAL commit per chunk, not per key."""
    obs = Observability()
    store = LSMStore(tmp_path / "bulk.lsm", fsync=fsync, obs=obs)
    series = "lsm_put_many_fsync" if fsync else "lsm_put_many"
    benchmark.group = "backend-lsm-write"

    def run() -> None:
        for batch in range(BULK_BATCHES):
            items = {
                f"bulk-{batch:03d}-{i:04d}": payload_for(i) for i in range(BULK_BATCH)
            }
            start = time.perf_counter()
            store.put_many(items)
            collector.record(FIGURE, series, VALUE_SIZE,
                             (time.perf_counter() - start) / BULK_BATCH)

    benchmark.pedantic(run, rounds=1)
    appends = obs.registry.counter("lsm.wal.appends").value
    commits = obs.registry.counter("lsm.wal.group_commits").value
    assert appends == BULK_BATCH * BULK_BATCHES
    assert commits * 8 < appends  # batched: far fewer commits than records
    assert store.size() == BULK_BATCH * BULK_BATCHES
    store.close()


@pytest.mark.parametrize("count", BLOOM_KEY_COUNTS)
def test_bloom_cost_by_filter_size(benchmark, collector, count):
    """Per-call cost of the filter in front of every SSTable read."""
    present = [b"key:%08d" % i for i in range(count)]
    absent = [b"nope:%08d" % i for i in range(count)]
    bloom = BloomFilter(count, 0.01)
    benchmark.group = "backend-lsm-read"

    def timed(series, call, keys) -> None:
        start = time.perf_counter()
        for key in keys:
            call(key)
        collector.record(FIGURE, series, count,
                         (time.perf_counter() - start) / len(keys))

    def run() -> None:
        timed("bloom_add", bloom.add, present)
        timed("bloom_probe_hit", bloom.might_contain, present)
        timed("bloom_probe_miss", bloom.might_contain, absent)

    benchmark.pedantic(run, rounds=1)
    assert all(bloom.might_contain(key) for key in present[:100])


def test_compaction_peak_memory(benchmark, collector, tmp_path):
    """A forced merge streams its output: the traced peak is a count, not
    a clock -- the write buffer, the output's keys and one block per input,
    never the output's values (the materialised merge read ~114 %)."""
    events = EventLog()
    store = LSMStore(tmp_path / "merge.lsm", memtable_bytes=1 << 20,
                     auto_compact=False, obs=Observability(events=events))
    for start in range(0, MERGE_RECORDS, BULK_BATCH):
        store.put_many({f"merge-{i:06d}": payload_for(i)
                        for i in range(start, start + BULK_BATCH)})
    store.flush()
    inputs = store.stats()["sstables"]
    peak = [0]
    benchmark.group = "backend-lsm-write"

    def run() -> None:
        tracemalloc.start()
        try:
            store.compact()
            peak[0] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    benchmark.pedantic(run, rounds=1)
    stats = store.stats()
    (event,) = events.tail(kind="lsm_compact")
    assert inputs > 1 and stats["sstables"] == 1
    assert event["records"] == stats["sstable_records"] == MERGE_RECORDS
    output = stats["sstable_bytes"]
    # record() scales seconds -> ms; pre-divide so the JSON carries MiB.
    collector.record(FIGURE, "lsm_compaction_peak_mib", MERGE_RECORDS, peak[0] / 2**20 / 1e3)
    collector.record(FIGURE, "lsm_compaction_output_mib", MERGE_RECORDS, output / 2**20 / 1e3)
    assert peak[0] <= MERGE_PEAK_SHARE * output, (peak[0], output)
    store.close()


@pytest.mark.parametrize("name", BACKENDS)
def test_read_path(benchmark, collector, tmp_path, name):
    store = make_store(name, tmp_path)
    for i in range(OPERATIONS):
        store.put(f"bench-{i:05d}", payload_for(i))
    if name == "lsm":
        store.flush()  # read from SSTables, not a warm memtable
    order = list(range(OPERATIONS))
    random.Random(7).shuffle(order)
    benchmark.group = "backend-lsm-read"

    def run() -> None:
        for i in order:
            start = time.perf_counter()
            value = store.get(f"bench-{i:05d}")
            collector.record(FIGURE, f"{name}_read", VALUE_SIZE,
                             time.perf_counter() - start)
            assert value[:8] == f"{i:08d}"

    benchmark.pedantic(run, rounds=1)
    store.close()


@pytest.mark.parametrize("name", BACKENDS)
def test_scan_path(benchmark, collector, tmp_path, name):
    store = make_store(name, tmp_path)
    for i in range(OPERATIONS):
        store.put(f"bench-{i:05d}", payload_for(i))
    benchmark.group = "backend-lsm-scan"

    def run() -> None:
        for _ in range(8):
            start = time.perf_counter()
            count = sum(1 for _key in store.keys_with_prefix("bench-"))
            collector.record(FIGURE, f"{name}_scan", VALUE_SIZE,
                             time.perf_counter() - start)
            assert count == OPERATIONS

    benchmark.pedantic(run, rounds=1)
    store.close()


def test_read_path_cold(benchmark, collector, tmp_path):
    """Point reads over the e2e spine's cold data: most gets probe several
    tables' Bloom filters and ``pread`` one block (``lsm_read_cold``)."""
    store = LSMStore(tmp_path / "cold.lsm", memtable_bytes=1 << 20)
    for start in range(0, COLD_KEYS, BULK_BATCH):
        store.put_many({f"cold-{i:06d}": payload_for(i) for i in range(start, start + BULK_BATCH)})
    rng = random.Random(13)
    order = [rng.randrange(COLD_KEYS) for _ in range(2 * COLD_READS)]
    benchmark.group = "backend-lsm-read"

    def run() -> None:
        for i in order[:COLD_READS]:  # warm-up
            store.get(f"cold-{i:06d}")
        for i in order[COLD_READS:]:
            start = time.perf_counter()
            value = store.get(f"cold-{i:06d}")
            collector.record(FIGURE, "lsm_read_cold", VALUE_SIZE, time.perf_counter() - start)
            assert value[:8] == f"{i:08d}"

    benchmark.pedantic(run, rounds=1)
    stats = store.stats()
    assert stats["sstables"] >= 5
    store.close()


def test_lsm_writes_beat_file_per_key(benchmark, collector):
    """Shape: sequential-append writes must beat file-per-key writes at 1 KB."""
    benchmark.group = "backend-lsm-write"
    benchmark.pedantic(lambda: None, rounds=1)
    lsm = collector.mean_at(FIGURE, "lsm_write", VALUE_SIZE)
    file_backend = collector.mean_at(FIGURE, "file_write", VALUE_SIZE)
    assert lsm is not None and file_backend is not None
    assert lsm < file_backend
