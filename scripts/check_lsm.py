#!/usr/bin/env python
"""LSM durability contract check (``make check-lsm``).

Guards the promise of ``docs/lsm.md``: **no acknowledged write is ever
lost**.  Each scenario drives a real :class:`repro.lsm.LSMStore`, then
simulates a crash the honest way -- copying the live data directory
without closing the store (the moment of power loss) -- and verifies that
a fresh store over the copy serves every acknowledged write:

* WAL-only state (nothing flushed) survives a crash;
* a torn WAL tail (partial frame, bit-flipped record) is truncated back
  to the last intact record without losing anything acknowledged before it;
* mixed SSTable + WAL state recovers to the exact acknowledged key set;
* compaction preserves the exact key/value set while reclaiming
  overwrites and tombstones;
* recovery re-persists replayed state immediately (a second crash right
  after open also loses nothing);
* a torn MANIFEST tail is repaired on open without losing committed tables;
* a crash between the flush commit and the compaction commit leaves the
  old tables in charge (the uncommitted output is swept, nothing is
  resurrected or lost), and the mirror crash -- swap committed, inputs
  not yet unlinked -- sweeps the inputs and keeps the output;
* orphaned ``*.sst.tmp`` files from a crashed table write are swept;
* a PR-4-era directory (no MANIFEST) opens cleanly and writes one;
* power loss in the middle of a group-commit sync (concurrent
  ``fsync=True`` writers) loses no write acknowledged before the crash
  point, including when the snapshot's WAL tail is additionally torn;
* power loss inside a multi-record ``put_many`` batch (written, not yet
  synced, so never acknowledged) recovers every earlier acknowledged write
  plus a *prefix* of the batch -- never a later record without the ones
  before it -- wherever the copied WAL tail is torn;
* a failed sync poisons the WAL segment (fsyncgate: never retried), the
  store rejects further mutations, the failed write is NOT resurrected
  by recovery, and a reopened store accepts writes again.

Exit status 0 when every scenario holds; 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.errors import KeyNotFoundError, WalPoisonedError  # noqa: E402
from repro.lsm import (  # noqa: E402
    MANIFEST_NAME,
    LSMStore,
    Manifest,
    SSTable,
    merge_tables,
    write_sstable,
)
from repro.lsm import wal as wal_module  # noqa: E402


def _expect(errors: list[str], condition: bool, message: str) -> None:
    if not condition:
        errors.append(message)


def _crash_copy(store: LSMStore, workdir: Path, name: str) -> Path:
    """Simulate power loss: snapshot the live directory, store still open."""
    target = workdir / name
    shutil.copytree(store.native(), target)
    return target


def _verify_exact_contents(
    errors: list[str], store: LSMStore, expected: dict[str, object], label: str
) -> None:
    got = {key: store.get(key) for key in store.keys()}
    missing = sorted(set(expected) - set(got))
    extra = sorted(set(got) - set(expected))
    _expect(errors, not missing, f"{label}: acknowledged keys lost: {missing[:5]}")
    _expect(errors, not extra, f"{label}: phantom keys appeared: {extra[:5]}")
    for key in set(expected) & set(got):
        if got[key] != expected[key]:
            errors.append(f"{label}: {key!r} == {got[key]!r}, want {expected[key]!r}")
            break


def check_wal_only_crash() -> list[str]:
    """Writes that never left the WAL must survive a crash."""
    errors: list[str] = []
    workdir = Path(tempfile.mkdtemp(prefix="check-lsm-"))
    try:
        store = LSMStore(workdir / "db")
        expected: dict[str, object] = {}
        for i in range(100):
            store.put(f"key-{i:03d}", {"value": i})
            expected[f"key-{i:03d}"] = {"value": i}
        store.delete("key-050")
        del expected["key-050"]
        crashed = _crash_copy(store, workdir, "crashed")
        store.close()
        with LSMStore(crashed) as recovered:
            _verify_exact_contents(errors, recovered, expected, "wal-only crash")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return errors


def check_torn_tail() -> list[str]:
    """A partial frame at the WAL tail must be discarded -- and only it."""
    errors: list[str] = []
    workdir = Path(tempfile.mkdtemp(prefix="check-lsm-"))
    try:
        store = LSMStore(workdir / "db")
        for i in range(20):
            store.put(f"key-{i:02d}", f"value-{i}")
        crashed = _crash_copy(store, workdir, "crashed")
        store.close()
        (wal_path,) = crashed.glob("wal-*.log")
        with open(wal_path, "ab") as handle:
            handle.write(b"\xde\xad\xbe\xef\x00")  # power loss mid-append
        with LSMStore(crashed) as recovered:
            expected = {f"key-{i:02d}": f"value-{i}" for i in range(20)}
            _verify_exact_contents(errors, recovered, expected, "torn tail")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return errors


def check_corrupt_record() -> list[str]:
    """A bit-flipped WAL record must cut replay there, keeping the prefix."""
    errors: list[str] = []
    workdir = Path(tempfile.mkdtemp(prefix="check-lsm-"))
    try:
        store = LSMStore(workdir / "db")
        store.put("before", "intact")
        prefix_end = store.stats()["wal_bytes"]
        store.put("after", "doomed")
        crashed = _crash_copy(store, workdir, "crashed")
        store.close()
        (wal_path,) = crashed.glob("wal-*.log")
        blob = bytearray(wal_path.read_bytes())
        blob[prefix_end + 10] ^= 0xFF
        wal_path.write_bytes(bytes(blob))
        with LSMStore(crashed) as recovered:
            _expect(errors, recovered.get("before") == "intact",
                    "corrupt record: intact prefix lost")
            try:
                recovered.get("after")
                errors.append("corrupt record: corrupted write served anyway")
            except KeyNotFoundError:
                pass
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return errors


def check_mixed_state_crash() -> list[str]:
    """SSTables + sealed memtables + active WAL must all recover together."""
    errors: list[str] = []
    workdir = Path(tempfile.mkdtemp(prefix="check-lsm-"))
    try:
        # Tiny memtable: the workload spans flushed tables AND a live WAL.
        store = LSMStore(workdir / "db", memtable_bytes=2_048)
        expected: dict[str, object] = {}
        for i in range(300):
            store.put(f"key-{i:04d}", "x" * (i % 50))
            expected[f"key-{i:04d}"] = "x" * (i % 50)
        for i in range(0, 300, 3):
            store.delete(f"key-{i:04d}")
            del expected[f"key-{i:04d}"]
        crashed = _crash_copy(store, workdir, "crashed")
        store.close()
        with LSMStore(crashed) as recovered:
            _verify_exact_contents(errors, recovered, expected, "mixed-state crash")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return errors


def check_compaction_preserves_contents() -> list[str]:
    """A full merge must keep the exact live key set and shrink the files."""
    errors: list[str] = []
    workdir = Path(tempfile.mkdtemp(prefix="check-lsm-"))
    try:
        with LSMStore(workdir / "db", auto_compact=False) as store:
            expected: dict[str, object] = {}
            for round_number in range(4):
                for i in range(50):
                    store.put(f"key-{i:02d}", {"round": round_number, "i": i})
                    expected[f"key-{i:02d}"] = {"round": round_number, "i": i}
                store.flush()
            for i in range(25):
                store.delete(f"key-{i:02d}")
                del expected[f"key-{i:02d}"]
            before = store.stats()
            store.compact()
            after = store.stats()
            _expect(errors, after["sstables"] == 1,
                    f"compaction left {after['sstables']} tables, want 1")
            _expect(errors, after["sstable_records"] == len(expected),
                    f"compacted run holds {after['sstable_records']} records, "
                    f"want {len(expected)}")
            _expect(errors, after["sstable_bytes"] < before["sstable_bytes"],
                    "compaction did not reclaim any bytes")
            _verify_exact_contents(errors, store, expected, "compaction")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return errors


def check_recovery_is_durable() -> list[str]:
    """Recovery must flush replayed state: a second crash loses nothing."""
    errors: list[str] = []
    workdir = Path(tempfile.mkdtemp(prefix="check-lsm-"))
    try:
        store = LSMStore(workdir / "db")
        store.put("survivor", [1, 2, 3])
        crashed_once = _crash_copy(store, workdir, "crashed-once")
        store.close()
        reopened = LSMStore(crashed_once)
        crashed_twice = _crash_copy(reopened, workdir, "crashed-twice")
        reopened.close()
        with LSMStore(crashed_twice) as recovered:
            _verify_exact_contents(
                errors, recovered, {"survivor": [1, 2, 3]}, "double crash"
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return errors


def check_torn_manifest_tail() -> list[str]:
    """A torn MANIFEST tail must repair on open, keeping committed tables."""
    errors: list[str] = []
    workdir = Path(tempfile.mkdtemp(prefix="check-lsm-"))
    try:
        expected: dict[str, object] = {}
        with LSMStore(workdir / "db", auto_compact=False) as store:
            for i in range(40):
                store.put(f"key-{i:02d}", i)
                expected[f"key-{i:02d}"] = i
            store.flush()
        with open(workdir / "db" / MANIFEST_NAME, "ab") as tail:
            tail.write(b"\xba\xad\xf0\x0d")  # power loss mid-append
        with LSMStore(workdir / "db") as recovered:
            _verify_exact_contents(errors, recovered, expected, "torn manifest")
        replay = Manifest.replay(workdir / "db" / MANIFEST_NAME)
        _expect(errors, not replay.torn, "torn manifest: not rewritten clean")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return errors


def check_crash_between_swap_commits() -> list[str]:
    """Crash after a compaction wrote its output but before the manifest
    committed the swap: the old tables must win (no resurrected values,
    no lost keys), and the uncommitted output must be swept."""
    errors: list[str] = []
    workdir = Path(tempfile.mkdtemp(prefix="check-lsm-"))
    try:
        expected: dict[str, object] = {}
        store = LSMStore(workdir / "db", auto_compact=False)
        for batch in range(2):
            for i in range(30):
                store.put(f"key-{i:02d}", {"batch": batch})
                expected[f"key-{i:02d}"] = {"batch": batch}
            store.flush()
        crashed = _crash_copy(store, workdir, "crashed")
        store.close()
        # The dead compaction's uncommitted output: stale data under the
        # name a real merge would have used.  Loading it would resurrect
        # batch-0 values; the manifest must refuse it.
        stray = crashed / "000002-001.sst"
        write_sstable(stray, [(b"key-00", b"stale")])
        with LSMStore(crashed) as recovered:
            _verify_exact_contents(errors, recovered, expected, "pre-commit crash")
        _expect(errors, not stray.exists(), "pre-commit crash: stray .sst kept")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return errors


def check_crash_after_swap_commit() -> list[str]:
    """Crash after the manifest committed a compaction swap but before the
    input tables were unlinked: the output must win, the inputs be swept."""
    errors: list[str] = []
    workdir = Path(tempfile.mkdtemp(prefix="check-lsm-"))
    try:
        expected: dict[str, object] = {}
        root = workdir / "db"
        with LSMStore(root, auto_compact=False) as store:
            for batch in range(2):
                for i in range(30):
                    store.put(f"key-{i:02d}", {"batch": batch})
                    expected[f"key-{i:02d}"] = {"batch": batch}
                store.flush()
        inputs = sorted(p.name for p in root.glob("*.sst"))
        tables = [SSTable(root / name) for name in inputs]
        entries = list(merge_tables(tables, drop_tombstones=True))
        for table in tables:
            table.close()
        write_sstable(root / "000002-001.sst", entries)
        manifest = Manifest(root / MANIFEST_NAME)
        manifest.append(add=["000002-001.sst"], remove=inputs)
        manifest.close()  # ... and the crash hits before the unlinks
        with LSMStore(root) as recovered:
            _verify_exact_contents(errors, recovered, expected, "post-commit crash")
            _expect(errors, recovered.stats()["sstables"] == 1,
                    "post-commit crash: inputs resurrected alongside output")
        for name in inputs:
            _expect(errors, not (root / name).exists(),
                    f"post-commit crash: input {name} not swept")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return errors


def check_orphan_tmp_sweep() -> list[str]:
    """Orphaned *.sst.tmp files from a crashed table write must be swept."""
    errors: list[str] = []
    workdir = Path(tempfile.mkdtemp(prefix="check-lsm-"))
    try:
        root = workdir / "db"
        with LSMStore(root) as store:
            store.put("live", "data")
        (root / "tmpdeadbeef.sst.tmp").write_bytes(b"half-written table")
        with LSMStore(root) as recovered:
            _verify_exact_contents(errors, recovered, {"live": "data"}, "orphan tmp")
        _expect(errors, not list(root.glob("*.sst.tmp")),
                "orphan tmp: *.sst.tmp survived recovery")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return errors


def check_manifest_migration() -> list[str]:
    """A PR-4-era directory (no MANIFEST) must open cleanly and write one."""
    errors: list[str] = []
    workdir = Path(tempfile.mkdtemp(prefix="check-lsm-"))
    try:
        expected: dict[str, object] = {}
        root = workdir / "db"
        with LSMStore(root, auto_compact=False) as store:
            for i in range(50):
                store.put(f"key-{i:02d}", i)
                expected[f"key-{i:02d}"] = i
            store.flush()
            store.put("wal-only", "tail")
            expected["wal-only"] = "tail"
        (root / MANIFEST_NAME).unlink()  # what PR 4 left behind
        with LSMStore(root) as migrated:
            _verify_exact_contents(errors, migrated, expected, "manifest migration")
        _expect(errors, (root / MANIFEST_NAME).is_file(),
                "manifest migration: no MANIFEST written")
        with LSMStore(root) as again:  # second open trusts the manifest
            _verify_exact_contents(errors, again, expected, "post-migration open")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return errors


def check_group_commit_mid_batch_crash() -> list[str]:
    """Power loss mid-sync under concurrent durable writers: every write
    acknowledged before the crash point must survive recovery.

    Six ``fsync=True`` threads hammer overlapping keys while a wrapped
    ``fsync`` snapshots the live directory at the start of sync #5 --
    the acknowledged set at that instant is exactly what a previous,
    completed sync has made durable.  Each key is written by one thread
    with increasing sequence numbers, so recovery must serve either the
    acknowledged value or a later one (the in-flight batch was written,
    just not yet acknowledged), and never an earlier or phantom value.
    A second recovery additionally tears the snapshot's WAL tail
    mid-frame, which may only cost unacknowledged in-flight frames.
    """
    errors: list[str] = []
    workdir = Path(tempfile.mkdtemp(prefix="check-lsm-"))
    try:
        store = LSMStore(workdir / "db", fsync=True)
        lock = threading.Lock()
        acked: dict[str, int] = {}
        state: dict[str, object] = {"calls": 0, "snapshot": None, "acked": None}

        def snapping_fsync(fd: int) -> None:
            with lock:
                state["calls"] += 1
                if state["calls"] == 5 and state["snapshot"] is None:
                    state["acked"] = dict(acked)
                    target = workdir / "crashed"
                    shutil.copytree(store.native(), target)
                    state["snapshot"] = target
            os.fsync(fd)

        wal_module._fsync = snapping_fsync
        failures: list[BaseException] = []
        try:
            barrier = threading.Barrier(6)

            def worker(t: int) -> None:
                barrier.wait(timeout=10.0)
                try:
                    for i in range(25):
                        key = f"t{t}-k{i % 5}"
                        store.put(key, i)
                        with lock:
                            acked[key] = i
                except BaseException as exc:  # noqa: BLE001
                    failures.append(exc)

            threads = [threading.Thread(target=worker, args=(t,)) for t in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            wal_module._fsync = os.fsync
        store.close()
        _expect(errors, not failures, f"mid-batch crash: writer failed: {failures[:1]}")
        snapshot = state["snapshot"]
        _expect(errors, snapshot is not None, "mid-batch crash: sync #5 never ran")
        if snapshot is None:
            return errors
        acked_at_crash: dict[str, int] = state["acked"]  # type: ignore[assignment]

        def verify(root: Path, label: str) -> None:
            with LSMStore(root) as recovered:
                got = {key: recovered.get(key) for key in recovered.keys()}
            for key, seq in acked_at_crash.items():
                if key not in got:
                    errors.append(f"{label}: acknowledged {key!r} lost")
                    return
                if got[key] < seq:
                    errors.append(
                        f"{label}: {key!r} rolled back to {got[key]} "
                        f"(acknowledged {seq})"
                    )
                    return
            phantom = [key for key in got if key not in acked]
            _expect(errors, not phantom, f"{label}: phantom keys {phantom[:5]}")

        verify(snapshot, "mid-batch crash")
        # Same power loss, plus a torn final frame on the copied WAL.
        torn = workdir / "crashed-torn"
        shutil.copytree(snapshot, torn)
        (wal_path,) = torn.glob("wal-*.log")
        size = wal_path.stat().st_size
        if size > 3:
            with open(wal_path, "rb+") as handle:
                handle.truncate(size - 3)
        verify(torn, "mid-batch crash, torn tail")
    finally:
        wal_module._fsync = os.fsync
        shutil.rmtree(workdir, ignore_errors=True)
    return errors


def check_multi_record_batch_crash() -> list[str]:
    """Power loss inside one ``put_many`` commit: the batch was never
    acknowledged, so recovery owes it nothing -- but what it does recover
    must be a prefix of the batch in WAL order, on top of every write
    acknowledged before it.

    The snapshot is taken as the batch's sync starts (all of its frames
    written, none durable).  Recovery then runs over that copy with the
    WAL cut at every frame boundary of the batch and in the middle of
    every frame, which is every shape the tail can take after power loss.
    """
    errors: list[str] = []
    workdir = Path(tempfile.mkdtemp(prefix="check-lsm-"))
    try:
        store = LSMStore(workdir / "db", fsync=True)
        acked: dict[str, object] = {}
        for i in range(10):
            store.put(f"acked-{i}", i)
            acked[f"acked-{i}"] = i
        # The batch overwrites one acknowledged key and adds eight new ones.
        batch: dict[str, object] = {f"batch-{i}": i for i in range(4)}
        batch["acked-3"] = "overwritten"
        batch.update({f"batch-{i}": i for i in range(4, 8)})
        (wal_path,) = store.native().glob("wal-*.log")
        acked_length = wal_path.stat().st_size
        snapshot = workdir / "crashed"

        def snapping_fsync(fd: int) -> None:
            if not snapshot.exists():
                shutil.copytree(store.native(), snapshot)
            os.fsync(fd)

        wal_module._fsync = snapping_fsync
        try:
            store.put_many(batch)
        finally:
            wal_module._fsync = os.fsync
        _expect(errors, store.stats()["group_commit"]["largest_batch"] == len(batch),
                "batch crash: put_many did not commit as one multi-record batch")
        store.close()
        _expect(errors, snapshot.exists(), "batch crash: the batch's sync never ran")
        if errors:
            return errors
        (snap_wal,) = snapshot.glob("wal-*.log")
        replay = wal_module.WriteAheadLog.replay(snap_wal)
        _expect(errors, len(replay.records) == len(acked) + len(batch) and not replay.torn,
                "batch crash: snapshot lacks the batch's frames")
        # Frame ends inside the batch: offsets where a whole prefix survives.
        ends = [acked_length]
        framing = wal_module._HEADER.size + wal_module._PREFIX.size
        for record in replay.records[len(acked):]:
            ends.append(ends[-1] + framing + len(record.key) + len(record.value))
        _expect(errors, ends[-1] == snap_wal.stat().st_size,
                "batch crash: frame arithmetic does not add up to the file")
        ordered = list(batch.items())
        cuts = [(end, survivors) for survivors, end in enumerate(ends)]
        cuts += [(end - 3, survivors) for survivors, end in enumerate(ends[1:])]
        for cut, survivors in cuts:
            torn = workdir / f"crashed-{cut}"
            shutil.copytree(snapshot, torn)
            with open(next(torn.glob("wal-*.log")), "rb+") as handle:
                handle.truncate(cut)
            expected = dict(acked)
            expected.update(ordered[:survivors])
            with LSMStore(torn) as recovered:
                _verify_exact_contents(
                    errors, recovered, expected,
                    f"batch crash, WAL cut at {cut} ({survivors} of {len(batch)} records)",
                )
            shutil.rmtree(torn)
    finally:
        wal_module._fsync = os.fsync
        shutil.rmtree(workdir, ignore_errors=True)
    return errors


def check_poisoned_sync() -> list[str]:
    """A failed sync must poison the WAL: the store stops accepting
    mutations (never retries -- fsyncgate), the failed write is not
    resurrected by recovery, and a reopen restores a writable store."""
    errors: list[str] = []
    workdir = Path(tempfile.mkdtemp(prefix="check-lsm-"))
    try:
        store = LSMStore(workdir / "db", fsync=True)
        expected: dict[str, object] = {}
        for i in range(20):
            store.put(f"key-{i:02d}", i)
            expected[f"key-{i:02d}"] = i

        armed = {"live": True}

        def failing_fsync(fd: int) -> None:
            if armed["live"]:
                armed["live"] = False
                raise OSError(5, "Input/output error")
            os.fsync(fd)

        wal_module._fsync = failing_fsync
        try:
            try:
                store.put("doomed", "never acknowledged")
                errors.append("poisoned sync: failed write acknowledged anyway")
            except WalPoisonedError:
                pass
            # Retrying would falsely succeed (the kernel cleared the
            # error); the store must refuse instead.
            for attempt in (lambda: store.put("retry", 1),
                            lambda: store.delete("key-00")):
                try:
                    attempt()
                    errors.append("poisoned sync: mutation accepted after poison")
                except WalPoisonedError:
                    pass
            _expect(errors, store.get("key-07") == 7,
                    "poisoned sync: acknowledged read broken on live store")
            _expect(errors, store.stats()["wal_poisoned"] is True,
                    "poisoned sync: stats() hides the poisoning")
            crashed = _crash_copy(store, workdir, "crashed")
            store.close()
        finally:
            wal_module._fsync = os.fsync
        with LSMStore(crashed, fsync=True) as recovered:
            _verify_exact_contents(errors, recovered, expected, "poisoned sync")
            try:
                recovered.get("doomed")
                errors.append("poisoned sync: failed write resurrected by recovery")
            except KeyNotFoundError:
                pass
            recovered.put("fresh", "writable again")
            _expect(errors, recovered.get("fresh") == "writable again",
                    "poisoned sync: reopened store not writable")
    finally:
        wal_module._fsync = os.fsync
        shutil.rmtree(workdir, ignore_errors=True)
    return errors


CHECKS = [
    ("wal-only crash", check_wal_only_crash),
    ("torn WAL tail", check_torn_tail),
    ("corrupt WAL record", check_corrupt_record),
    ("mixed-state crash", check_mixed_state_crash),
    ("compaction contents", check_compaction_preserves_contents),
    ("recovery durability", check_recovery_is_durable),
    ("torn MANIFEST tail", check_torn_manifest_tail),
    ("crash before swap commit", check_crash_between_swap_commits),
    ("crash after swap commit", check_crash_after_swap_commit),
    ("orphan tmp sweep", check_orphan_tmp_sweep),
    ("manifest migration", check_manifest_migration),
    ("group-commit mid-batch crash", check_group_commit_mid_batch_crash),
    ("multi-record batch crash", check_multi_record_batch_crash),
    ("poisoned sync", check_poisoned_sync),
]


def main() -> int:
    failed = False
    for label, check in CHECKS:
        problems = check()
        if problems:
            failed = True
            print(f"FAIL  {label}")
            for problem in problems:
                print(f"      - {problem}")
        else:
            print(f"ok    {label}")
    if failed:
        print("\nLSM durability contract violated -- see docs/lsm.md")
        return 1
    print("\nLSM durability contract holds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
