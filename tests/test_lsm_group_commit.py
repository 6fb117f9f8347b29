"""Group commit and sync-failure poisoning tests for the LSM engine.

Covers the :class:`repro.lsm.CommitPipeline` leader/waiter protocol in
isolation (including the hand-off of leadership after each batch), WAL
poisoning semantics (fsyncgate: never retry a failed sync), the
store-level failure mode, the directory sync of each new WAL segment,
and concurrent ``fsync=True`` soaks with crash-sim recovery.  The
multi-thread tests are driven by events/semaphores and the pipeline's
``_enqueue_hook`` seam -- zero real sleeps, deterministic batch shapes --
except the soaks, which are bounded in time and assert invariants.
"""

from __future__ import annotations

import os
import shutil
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import (
    ConfigurationError,
    KeyNotFoundError,
    StoreClosedError,
    WalPoisonedError,
)
from repro.kv import LSMStore
from repro.lsm import CommitPipeline, ManualScheduler, WriteAheadLog
from repro.lsm import store as store_module
from repro.lsm import wal as wal_module
from repro.obs import EventLog, Observability

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from check_instrumentation import COMMIT_COUNTS, leader_commit_waits  # noqa: E402


def crash_copy(store, tmp_path, name="crashed"):
    """Simulate power loss: copy the live directory without closing."""
    target = tmp_path / name
    shutil.copytree(store.native(), target)
    return target


def run_batched(pipeline, leader_frame, follower_frames, *, commit_gate, applied):
    """Drive *pipeline* into a deterministic multi-frame batch.

    The leader thread submits *leader_frame* and stalls inside the commit
    callback (which must wait on *commit_gate* -- a semaphore released
    once per follower enqueue via the pipeline's ``_enqueue_hook``).
    Every follower is therefore queued before the leader drains batch
    two.  Returns the follower threads' per-submit errors by index.
    """
    errors: dict[int, BaseException] = {}

    def submit(index, frame):
        try:
            pipeline.submit(frame, lambda: applied.append(index))
        except BaseException as exc:  # noqa: BLE001 - recorded for asserts
            errors[index] = exc

    leader = threading.Thread(target=submit, args=(0, leader_frame))
    leader.start()
    commit_gate["entered"].wait(timeout=5.0)
    pipeline._enqueue_hook = commit_gate["release"].release
    followers = [
        threading.Thread(target=submit, args=(i + 1, frame))
        for i, frame in enumerate(follower_frames)
    ]
    for thread in followers:
        thread.start()
    for thread in followers:
        thread.join(timeout=5.0)
    leader.join(timeout=5.0)
    assert not any(t.is_alive() for t in followers + [leader])
    return errors


def make_commit_gate(batches, followers, *, fail=None):
    """A commit callback that records batches and holds batch one open
    until *followers* enqueue-hook releases have arrived."""
    entered = threading.Event()
    release = threading.Semaphore(0)

    def commit(frames):
        batches.append(list(frames))
        if len(batches) == 1:
            entered.set()
            for _ in range(followers):
                assert release.acquire(timeout=5.0)
        elif fail is not None and len(batches) == 2:
            raise fail

    return commit, {"entered": entered, "release": release}


class TestCommitPipeline:
    def test_single_submit_commits_and_applies(self):
        batches = []
        applied = []
        pipeline = CommitPipeline(batches.append)
        pipeline.submit(b"frame", lambda: applied.append("done"))
        assert batches == [[b"frame"]]
        assert applied == ["done"]
        assert pipeline.stats() == {
            "batches": 1,
            "committed": 1,
            "largest_batch": 1,
        }

    def test_followers_share_one_commit(self):
        batches = []
        applied = []
        commit, gate = make_commit_gate(batches, followers=7)
        pipeline = CommitPipeline(commit)
        frames = [b"frame-%d" % i for i in range(1, 8)]
        errors = run_batched(pipeline, b"frame-0", frames, commit_gate=gate, applied=applied)
        assert errors == {}
        # One leader batch, then every queued follower in one group.
        assert [len(batch) for batch in batches] == [1, 7]
        assert sorted(batches[1]) == sorted(frames)
        assert pipeline.stats() == {
            "batches": 2,
            "committed": 8,
            "largest_batch": 7,
        }

    def test_apply_order_matches_wal_order(self):
        """Visibility callbacks run in the exact order frames hit the log."""
        batches = []
        applied = []
        commit, gate = make_commit_gate(batches, followers=7)
        pipeline = CommitPipeline(commit)
        frames = [b"frame-%d" % i for i in range(1, 8)]
        run_batched(pipeline, b"frame-0", frames, commit_gate=gate, applied=applied)
        wal_order = [int(frame.rsplit(b"-", 1)[1]) for batch in batches for frame in batch]
        assert applied == wal_order

    def test_max_batch_records_bounds_each_batch(self):
        batches = []
        applied = []
        commit, gate = make_commit_gate(batches, followers=7)
        pipeline = CommitPipeline(commit, max_batch_records=3)
        frames = [b"frame-%d" % i for i in range(1, 8)]
        run_batched(pipeline, b"frame-0", frames, commit_gate=gate, applied=applied)
        assert [len(batch) for batch in batches] == [1, 3, 3, 1]
        # Splitting batches must not reorder the queue.
        flat = [frame for batch in batches[1:] for frame in batch]
        assert applied[1:] == [int(f.rsplit(b"-", 1)[1]) for f in flat]

    def test_max_batch_bytes_bounds_each_batch(self):
        batches = []
        applied = []
        commit, gate = make_commit_gate(batches, followers=6)
        # 10-byte frames, 25-byte bound: first frame always taken, one
        # more fits, a third would exceed -- batches of two.
        pipeline = CommitPipeline(commit, max_batch_bytes=25)
        frames = [b"frame-%04d" % i for i in range(1, 7)]
        run_batched(pipeline, b"frame-0000", frames, commit_gate=gate, applied=applied)
        assert [len(batch) for batch in batches] == [1, 2, 2, 2]

    def test_oversized_frame_still_commits_alone(self):
        batches = []
        pipeline = CommitPipeline(batches.append, max_batch_bytes=4)
        pipeline.submit(b"way-over-the-byte-bound")
        assert batches == [[b"way-over-the-byte-bound"]]

    def test_commit_error_fails_every_waiter_in_the_batch(self):
        batches = []
        applied = []
        boom = OSError(5, "Input/output error")
        commit, gate = make_commit_gate(batches, followers=4, fail=boom)
        pipeline = CommitPipeline(commit)
        frames = [b"frame-%d" % i for i in range(1, 5)]
        errors = run_batched(pipeline, b"frame-0", frames, commit_gate=gate, applied=applied)
        # Leader's own batch succeeded; the follower batch failed whole.
        assert set(errors) == {1, 2, 3, 4}
        assert all(err is boom for err in errors.values())
        assert applied == [0]  # no visibility for a failed batch
        # The pipeline itself is not poisoned -- a later batch commits
        # (segment poisoning is the WAL's job, not the pipeline's).
        pipeline.submit(b"after", lambda: applied.append("after"))
        assert applied == [0, "after"]

    def test_apply_error_fails_only_its_own_waiter(self):
        batches = []
        applied = []
        commit, gate = make_commit_gate(batches, followers=3)
        pipeline = CommitPipeline(commit)

        results: dict[int, BaseException | None] = {}

        def submit(index):
            def apply():
                applied.append(index)
                if index == 2:
                    raise ValueError("apply blew up")

            try:
                pipeline.submit(b"frame-%d" % index, apply)
                results[index] = None
            except BaseException as exc:  # noqa: BLE001
                results[index] = exc

        leader = threading.Thread(target=submit, args=(0,))
        leader.start()
        gate["entered"].wait(timeout=5.0)
        pipeline._enqueue_hook = gate["release"].release
        followers = [threading.Thread(target=submit, args=(i,)) for i in (1, 2, 3)]
        for thread in followers:
            thread.start()
        for thread in followers + [leader]:
            thread.join(timeout=5.0)

        assert isinstance(results[2], ValueError)
        assert results[0] is None and results[1] is None and results[3] is None
        # The failing apply still ran, and later applies were not skipped.
        assert sorted(applied) == [0, 1, 2, 3]

    def test_barrier_frame_costs_no_io(self):
        batches = []
        applied = []
        pipeline = CommitPipeline(batches.append)
        pipeline.submit(b"", lambda: applied.append("barrier"))
        assert batches == []  # empty frames never reach the commit callback
        assert applied == ["barrier"]
        assert pipeline.stats()["committed"] == 1

    def test_barrier_never_shares_a_batch_with_data_frames(self):
        """Batch collection cuts at a barrier: a barrier's apply may seal
        (swap memtable + WAL), so data frames queued behind it must land
        in their own, post-barrier batch."""
        batches = []
        applied = []
        commit, gate = make_commit_gate(batches, followers=3)
        pipeline = CommitPipeline(commit)
        errors = run_batched(
            pipeline,
            b"frame-0",
            [b"frame-1", b"", b"frame-2"],
            commit_gate=gate,
            applied=applied,
        )
        assert errors == {}
        # The queued group [frame-1, barrier, frame-2] split into three
        # batches; the barrier one never reached the commit callback.
        assert batches == [[b"frame-0"], [b"frame-1"], [b"frame-2"]]
        assert applied == [0, 1, 2, 3]  # order still intact across the cut
        assert pipeline.stats() == {
            "batches": 4,
            "committed": 4,
            "largest_batch": 1,
        }

    def test_on_batch_applied_runs_at_batch_boundaries(self):
        """The end-of-batch hook runs after a batch's last apply, never
        between two applies of the same batch."""
        batches = []
        applied = []
        commit, gate = make_commit_gate(batches, followers=3)
        pipeline = CommitPipeline(
            commit, on_batch_applied=lambda: applied.append("boundary")
        )
        frames = [b"frame-%d" % i for i in range(1, 4)]
        errors = run_batched(
            pipeline, b"frame-0", frames, commit_gate=gate, applied=applied
        )
        assert errors == {}
        assert applied == [0, "boundary", 1, 2, 3, "boundary"]

    def test_on_batch_applied_error_defers_to_the_leader(self):
        """A hook failure surfaces from the leader's submit after it has
        given up leadership -- it never wedges leadership or strands
        waiters."""
        boom = OSError(5, "flush blew up")
        calls = []

        def hook():
            calls.append(1)
            if len(calls) == 1:
                raise boom

        pipeline = CommitPipeline(lambda frames: None, on_batch_applied=hook)
        with pytest.raises(OSError):
            pipeline.submit(b"frame")
        # Leadership was released: the next writer leads a fresh batch.
        pipeline.submit(b"after")
        assert len(calls) == 2

    def test_close_rejects_new_submits(self):
        pipeline = CommitPipeline(lambda frames: None)
        pipeline.close()
        with pytest.raises(StoreClosedError):
            pipeline.submit(b"late")

    def test_close_drains_queued_work(self):
        """close() racing queued writers commits them, never drops them."""
        batches = []
        applied = []
        commit, gate = make_commit_gate(batches, followers=3)
        pipeline = CommitPipeline(commit)
        frames = [b"frame-%d" % i for i in range(1, 4)]

        errors: dict[int, BaseException] = {}

        def submit(index, frame):
            try:
                pipeline.submit(frame, lambda: applied.append(index))
            except BaseException as exc:  # noqa: BLE001
                errors[index] = exc

        leader = threading.Thread(target=submit, args=(0, b"frame-0"))
        leader.start()
        gate["entered"].wait(timeout=5.0)
        pipeline._enqueue_hook = gate["release"].release
        followers = [
            threading.Thread(target=submit, args=(i + 1, frame))
            for i, frame in enumerate(frames)
        ]
        for thread in followers:
            thread.start()
        closer = threading.Thread(target=pipeline.close)
        closer.start()
        for thread in followers + [leader, closer]:
            thread.join(timeout=5.0)
        assert not closer.is_alive()

        assert errors == {}
        assert sorted(applied) == [0, 1, 2, 3]  # everything queued was acked
        with pytest.raises(StoreClosedError):
            pipeline.submit(b"late")

    def test_batch_bounds_are_validated(self):
        with pytest.raises(ConfigurationError):
            CommitPipeline(lambda frames: None, max_batch_records=0)
        with pytest.raises(ConfigurationError):
            CommitPipeline(lambda frames: None, max_batch_bytes=0)

    # The removed adaptive-gather option, spelled in parts so that the
    # live tree names it nowhere but here.
    GATHER_OPTION = "_".join(("gather", "window", "s"))

    @pytest.mark.parametrize(
        "open_with",
        [
            lambda tmp_path, option: CommitPipeline(lambda frames: None, **{option: 0}),
            lambda tmp_path, option: LSMStore(tmp_path / "db", **{"wal_" + option: 0}),
        ],
        ids=["CommitPipeline", "LSMStore"],
    )
    def test_the_gather_option_is_gone(self, open_with, tmp_path):
        with pytest.raises(TypeError):
            open_with(tmp_path, self.GATHER_OPTION)


class _ParkSignal(threading.Condition):
    """A pipeline's ``_drained`` condition that reports when ``close()``
    parks on it -- by then the shutdown flag is set."""

    def __init__(self, lock, parked: threading.Event) -> None:
        super().__init__(lock)
        self._parked = parked

    def wait(self, timeout=None):
        self._parked.set()
        return super().wait(timeout)


def hold_first_commit(commits, *, follower_queued, in_commit):
    """A commit callback that records ``(frames, thread)`` and holds the
    first batch until *follower_queued* is set."""

    def commit(frames):
        commits.append((list(frames), threading.current_thread()))
        if len(commits) == 1:
            in_commit.set()
            assert follower_queued.wait(timeout=5.0)

    return commit


def submit_recording(pipeline, frame, errors, name):
    """Start a thread submitting *frame*; its error (or None) lands in
    ``errors[name]``."""

    def target():
        try:
            pipeline.submit(frame)
            errors[name] = None
        except BaseException as exc:  # noqa: BLE001 - recorded for asserts
            errors[name] = exc

    thread = threading.Thread(target=target, name=name, daemon=True)
    thread.start()
    return thread


class TestLeaderHandOff:
    """A leader commits one batch, then the oldest queued writer leads
    the next one from its own ``submit`` (LevelDB's write-queue rule)."""

    def test_leader_waits_only_for_its_own_commit(self):
        assert leader_commit_waits() == COMMIT_COUNTS[
            "commits a leader's submit waits for, one follower queued"
        ]

    def test_the_oldest_waiter_leads_the_next_batch(self):
        commits = []
        follower_queued, in_commit = threading.Event(), threading.Event()
        pipeline = CommitPipeline(
            hold_first_commit(commits, follower_queued=follower_queued, in_commit=in_commit)
        )
        errors: dict[str, BaseException | None] = {}
        leader = submit_recording(pipeline, b"L", errors, "L")
        assert in_commit.wait(timeout=5.0)
        queued = threading.Semaphore(0)
        pipeline._enqueue_hook = queued.release
        first = submit_recording(pipeline, b"F1", errors, "F1")
        assert queued.acquire(timeout=5.0)
        second = submit_recording(pipeline, b"F2", errors, "F2")
        assert queued.acquire(timeout=5.0)
        follower_queued.set()
        for thread in (leader, first, second):
            thread.join(timeout=5.0)
        assert not any(t.is_alive() for t in (leader, first, second))
        assert errors == {"L": None, "F1": None, "F2": None}
        # F1 and F2 share the second batch, and F1 -- the oldest waiter --
        # committed it from its own thread.
        assert [(frames, thread.name) for frames, thread in commits] == [
            ([b"L"], "L"),
            ([b"F1", b"F2"], "F1"),
        ]
        pipeline.close()

    def test_a_writer_arriving_during_a_hand_off_joins_the_new_leaders_batch(self):
        """Between a hand-off and the new leader's first step, its ticket
        still heads the queue.  A writer arriving in that gap queues
        behind it and rides the batch the new leader commits."""
        commits = []
        follower_queued, in_commit = threading.Event(), threading.Event()
        release_follower, arrival_queued = threading.Event(), threading.Event()
        pipeline = CommitPipeline(
            hold_first_commit(commits, follower_queued=follower_queued, in_commit=in_commit)
        )

        def hook():
            # Runs in each writer after it enqueued, before it parks: F
            # stays out of its gate (and so out of its batch) until told.
            if threading.current_thread().name == "F":
                follower_queued.set()
                assert release_follower.wait(timeout=5.0)
            else:
                arrival_queued.set()

        errors: dict[str, BaseException | None] = {}
        leader = submit_recording(pipeline, b"L", errors, "L")
        assert in_commit.wait(timeout=5.0)
        pipeline._enqueue_hook = hook
        follower = submit_recording(pipeline, b"F", errors, "F")
        leader.join(timeout=5.0)  # L committed, handed F the lead, returned
        assert not leader.is_alive()
        arrival = submit_recording(pipeline, b"A", errors, "A")
        try:
            assert arrival_queued.wait(timeout=5.0)
        finally:
            release_follower.set()
        for thread in (follower, arrival):
            thread.join(timeout=5.0)
        assert not any(t.is_alive() for t in (follower, arrival))
        assert errors == {"L": None, "F": None, "A": None}
        assert [(frames, thread.name) for frames, thread in commits] == [
            ([b"L"], "L"),
            ([b"F", b"A"], "F"),
        ]
        pipeline.close()

    def test_a_leader_never_waits_for_writers_that_are_not_queued(self, monkeypatch):
        """After a burst of three queued followers, a lone writer commits
        at once: its submit makes no timed wait for company that is not
        there.  Waits are counted by wrapping ``Condition.wait``."""
        commits = []
        follower_queued, in_commit = threading.Event(), threading.Event()
        pipeline = CommitPipeline(
            hold_first_commit(commits, follower_queued=follower_queued, in_commit=in_commit)
        )
        errors: dict[str, BaseException | None] = {}
        leader = submit_recording(pipeline, b"L", errors, "L")
        assert in_commit.wait(timeout=5.0)
        queued = threading.Semaphore(0)
        pipeline._enqueue_hook = queued.release
        followers = []
        for name in ("F1", "F2", "F3"):  # three writers queued behind L
            followers.append(submit_recording(pipeline, name.encode(), errors, name))
            assert queued.acquire(timeout=5.0)
        pipeline._enqueue_hook = None
        follower_queued.set()
        for thread in [leader] + followers:
            thread.join(timeout=5.0)
        assert not any(t.is_alive() for t in [leader] + followers)
        assert errors == {"L": None, "F1": None, "F2": None, "F3": None}
        assert [frames for frames, _thread in commits] == [[b"L"], [b"F1", b"F2", b"F3"]]

        timed_waits = []
        wait = threading.Condition.wait

        def counting_wait(condition, timeout=None):
            if timeout is not None and threading.current_thread() is caller:
                timed_waits.append(timeout)
            return wait(condition, timeout)

        caller = threading.current_thread()
        monkeypatch.setattr(threading.Condition, "wait", counting_wait)
        pipeline.submit(b"lone")
        monkeypatch.undo()
        assert timed_waits == []
        assert commits[-1] == ([b"lone"], caller)
        pipeline.close()

    def test_close_during_a_hand_off_drains_the_next_leader(self):
        """close() lands after a leader's batch, with leadership about to
        pass to a queued writer: that writer still leads and is
        acknowledged, and close() returns only after it."""
        commits = []
        follower_queued, in_commit = threading.Event(), threading.Event()
        parked = threading.Event()
        closers: list[threading.Thread] = []

        def hook():
            # Runs in the leader after its batch, before the hand-off.
            if not closers:
                closers.append(threading.Thread(target=pipeline.close, name="close"))
                closers[0].start()
                assert parked.wait(timeout=5.0)  # shutdown is now set

        pipeline = CommitPipeline(
            hold_first_commit(commits, follower_queued=follower_queued, in_commit=in_commit),
            on_batch_applied=hook,
        )
        pipeline._drained = _ParkSignal(pipeline._mutex, parked)
        errors: dict[str, BaseException | None] = {}
        leader = submit_recording(pipeline, b"L", errors, "L")
        assert in_commit.wait(timeout=5.0)
        pipeline._enqueue_hook = follower_queued.set
        follower = submit_recording(pipeline, b"F", errors, "F")
        for thread in (leader, follower):
            thread.join(timeout=5.0)
        closers[0].join(timeout=5.0)
        assert not any(t.is_alive() for t in (leader, follower, closers[0]))

        assert errors == {"L": None, "F": None}  # drained, not rejected
        assert [(frames, thread.name) for frames, thread in commits] == [
            ([b"L"], "L"),
            ([b"F"], "F"),
        ]
        with pytest.raises(StoreClosedError):
            pipeline.submit(b"late")

    def test_failing_hook_raises_from_its_leader_after_the_hand_off(self):
        """The end-of-batch hook fails in the leader that ran it; the
        queued writer is still handed the lead and acknowledged."""
        boom = OSError(5, "seal blew up")
        commits = []
        follower_queued, in_commit = threading.Event(), threading.Event()
        hooks: list[str] = []

        def hook():
            hooks.append(threading.current_thread().name)
            if len(hooks) == 1:
                raise boom

        pipeline = CommitPipeline(
            hold_first_commit(commits, follower_queued=follower_queued, in_commit=in_commit),
            on_batch_applied=hook,
        )
        errors: dict[str, BaseException | None] = {}
        leader = submit_recording(pipeline, b"L", errors, "L")
        assert in_commit.wait(timeout=5.0)
        pipeline._enqueue_hook = follower_queued.set
        follower = submit_recording(pipeline, b"F", errors, "F")
        for thread in (leader, follower):
            thread.join(timeout=5.0)
        assert not any(t.is_alive() for t in (leader, follower))

        assert errors["L"] is boom
        assert errors["F"] is None
        assert hooks == ["L", "F"]  # each leader ran its own batch's hook
        assert [thread.name for _frames, thread in commits] == ["L", "F"]
        pipeline.close()

    def test_poisoned_sync_then_hand_off(self, tmp_path, monkeypatch):
        """A sync fails with writers queued: the failing leader hands off,
        the next leader is refused with WalPoisonedError without syncing
        again, and nobody hangs."""
        obs = Observability()
        store = LSMStore(tmp_path / "db", fsync=True, obs=obs)
        store.put("acked", 0)

        in_sync, fail = threading.Event(), threading.Event()
        syncs = []

        def failing_fsync(fd):
            syncs.append(fd)
            in_sync.set()
            assert fail.wait(timeout=5.0)
            raise OSError(5, "Input/output error")

        monkeypatch.setattr(wal_module, "_fsync", failing_fsync)
        commit = store._pipeline._commit
        committers: list[str] = []

        def recording_commit(frames):
            committers.append(threading.current_thread().name)
            commit(frames)

        store._pipeline._commit = recording_commit
        results: dict[str, BaseException | None] = {}

        def write(name):
            def target():
                try:
                    store.put(name, name)
                    results[name] = None
                except BaseException as exc:  # noqa: BLE001
                    results[name] = exc

            thread = threading.Thread(target=target, name=name)
            thread.start()
            return thread

        leader = write("L")
        assert in_sync.wait(timeout=5.0)
        queued = threading.Semaphore(0)
        store._pipeline._enqueue_hook = queued.release
        followers = []
        for name in ("F1", "F2"):  # queued in this order behind the sync
            followers.append(write(name))
            assert queued.acquire(timeout=5.0)
        fail.set()
        for thread in followers + [leader]:
            thread.join(timeout=5.0)
        assert not any(t.is_alive() for t in followers + [leader])
        store._pipeline._enqueue_hook = None

        assert all(isinstance(results[n], WalPoisonedError) for n in ("L", "F1", "F2"))
        assert committers == ["L", "F1"]  # F1 led the second batch
        assert len(syncs) == 1  # the poisoned segment never synced again
        assert obs.registry.counter("lsm.wal.sync_failures").value == 1
        for name in ("L", "F1", "F2"):
            with pytest.raises(KeyNotFoundError):
                store.get(name)
        store.close()
        with LSMStore(tmp_path / "db") as reopened:
            assert reopened.get("acked") == 0
            assert sorted(reopened.keys()) == ["acked"]

    def test_many_writers_under_fast_thread_switching(self, tmp_path):
        """8 durable writers on 2 cores with the interpreter switching
        threads every 10 us: every acknowledged write survives a crash,
        and the WAL replays in exactly the memtable's apply order."""
        writers, per_writer, seconds = 8, 150, 1.0
        store = LSMStore(tmp_path / "db", fsync=True)
        acked: list[list[str]] = [[] for _ in range(writers)]
        failures: list[BaseException] = []
        start = threading.Barrier(writers)
        deadline = time.monotonic() + seconds + 5.0  # bounds every join

        def worker(w):
            try:
                start.wait(timeout=10.0)
                stop = time.monotonic() + seconds
                for i in range(per_writer):
                    if time.monotonic() > stop:
                        break
                    if w == 0 and i % 3 == 0:  # a multi-record ticket
                        keys = [f"w{w}-{i:04d}-{j}" for j in range(3)]
                        store.put_many({key: key for key in keys})
                    else:
                        keys = [f"w{w}-{i:04d}"]
                        store.put(keys[0], keys[0])
                    acked[w].extend(keys)
            except BaseException as exc:  # noqa: BLE001
                failures.append(exc)

        saved_interval = sys.getswitchinterval()
        pin = hasattr(os, "sched_setaffinity") and len(os.sched_getaffinity(0)) > 2
        saved_cpus = os.sched_getaffinity(0) if pin else None
        threads = []
        try:
            sys.setswitchinterval(1e-5)
            if pin:  # threads started from here inherit this thread's mask
                os.sched_setaffinity(0, sorted(saved_cpus)[:2])
            threads = [threading.Thread(target=worker, args=(w,)) for w in range(writers)]
            for thread in threads:
                thread.start()
        finally:
            if pin:
                os.sched_setaffinity(0, saved_cpus)
        try:
            for thread in threads:
                thread.join(timeout=max(0.1, deadline - time.monotonic()))
        finally:
            sys.setswitchinterval(saved_interval)
        assert not any(t.is_alive() for t in threads), "a writer hung"
        assert failures == []
        assert all(acked), "every writer was acknowledged at least once"

        # One WAL segment (nothing sealed): its replay order must be the
        # order the leaders applied records to the memtable (keys are
        # unique, so the memtable dict's insertion order is apply order).
        (segment,) = store.native().glob("wal-*.log")
        applied = list(store._memtable._entries)
        crashed = crash_copy(store, tmp_path)
        replayed = [record.key for record in WriteAheadLog.replay(segment).records]
        assert replayed == applied
        store.close()
        with LSMStore(crashed) as recovered:
            for keys in acked:
                for key in keys:
                    assert recovered.get(key) == key


class TestSegmentNameDurability:
    """With ``fsync=True`` every WAL segment the store creates has its
    directory entry synced before a batch can commit to it."""

    @staticmethod
    def count_dir_syncs(monkeypatch):
        """Record each WAL-segment directory sync with the size of the
        newest segment at that moment (0: nothing committed to it yet)."""
        syncs: list[tuple[str, int]] = []

        def recording_fsync_dir(path):
            newest = max(Path(path).glob("wal-*.log"))
            syncs.append((newest.name, newest.stat().st_size))

        monkeypatch.setattr(store_module, "fsync_dir", recording_fsync_dir)
        return syncs

    def test_one_directory_sync_per_segment_created(self, tmp_path, monkeypatch):
        syncs = self.count_dir_syncs(monkeypatch)
        obs = Observability()
        store = LSMStore(tmp_path / "db", fsync=True, memtable_bytes=2048, obs=obs)
        assert syncs == [("wal-000001.log", 0)]  # the segment made at open
        store.put("k", "v")
        store.flush()  # a barrier seal
        for i in range(20):  # size-triggered seals at batch boundaries
            store.put(f"big-{i}", "x" * 400)
        seals = obs.registry.counter("lsm.memtable.flushes").value
        assert seals >= 3
        assert len(syncs) == 1 + seals
        assert len({name for name, _size in syncs}) == len(syncs)  # one per segment
        assert all(size == 0 for _name, size in syncs)  # synced before any commit
        store.close()

        # Recovery replays the old segment and opens a fresh one: one more.
        del syncs[:]
        LSMStore(tmp_path / "db", fsync=True).close()
        assert len(syncs) == 1

    def test_no_directory_sync_without_fsync(self, tmp_path, monkeypatch):
        syncs = self.count_dir_syncs(monkeypatch)
        with LSMStore(tmp_path / "db", memtable_bytes=2048) as store:
            store.put("k", "v")
            store.flush()
            for i in range(20):
                store.put(f"big-{i}", "x" * 400)
            assert store.stats()["sstables"] >= 1
        assert syncs == []


class TestWalPoisoning:
    def test_sync_failure_poisons_and_truncates(self, tmp_path, monkeypatch):
        wal = WriteAheadLog(tmp_path / "wal.log", fsync=True)
        wal.append_put(b"acked", b"v1")
        acked = wal.size_bytes

        calls = []

        def failing_fsync(fd):
            calls.append(fd)
            raise OSError(5, "Input/output error")

        monkeypatch.setattr(wal_module, "_fsync", failing_fsync)
        with pytest.raises(WalPoisonedError):
            wal.append_put(b"doomed", b"v2")

        assert wal.poisoned
        # The un-acknowledged suffix is gone: accounting and the file agree.
        assert wal.size_bytes == acked
        assert wal.path.stat().st_size == acked

        # fsyncgate: even if a retried sync would now "succeed" (the
        # kernel cleared the error), the segment must never try again.
        monkeypatch.setattr(wal_module, "_fsync", os.fsync)
        with pytest.raises(WalPoisonedError):
            wal.append_put(b"retry", b"v3")
        assert len(calls) == 1  # the poisoned segment never synced again

        replay = WriteAheadLog.replay(wal.path)
        assert [record.key for record in replay.records] == [b"acked"]
        assert not replay.torn
        wal.close()

    def test_partial_write_failure_keeps_size_accounting(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.append_put(b"acked", b"v1")
        acked = wal.size_bytes

        real_file = wal._file

        class HalfThenFail:
            """Writes half the frame, then the disk is full."""

            def write(self, view):
                real_file.write(view[: len(view) // 2])
                raise OSError(28, "No space left on device")

            def fileno(self):
                return real_file.fileno()

            @property
            def closed(self):
                return real_file.closed

        wal._file = HalfThenFail()
        with pytest.raises(WalPoisonedError):
            wal.append_put(b"doomed", b"a much longer doomed value")
        wal._file = real_file

        # The torn half-frame was truncated away; _size matches reality.
        assert wal.poisoned
        assert wal.size_bytes == acked
        assert wal.path.stat().st_size == acked
        wal.close()

    def test_truncate_failure_falls_back_to_real_file_size(
        self, tmp_path, monkeypatch
    ):
        wal = WriteAheadLog(tmp_path / "wal.log", fsync=True)
        wal.append_put(b"acked", b"v1")

        def failing_fsync(fd):
            raise OSError(5, "Input/output error")

        def failing_ftruncate(fd, size):
            raise OSError(5, "Input/output error")

        monkeypatch.setattr(wal_module, "_fsync", failing_fsync)
        monkeypatch.setattr(os, "ftruncate", failing_ftruncate)
        with pytest.raises(WalPoisonedError):
            wal.append_put(b"doomed", b"v2")
        # Could not cut the suffix -- accounting re-stats the file so it
        # still tells the truth about what is on disk.
        assert wal.poisoned
        assert wal.size_bytes == wal.path.stat().st_size
        wal.close()

    def test_write_batch_is_all_or_nothing_per_ack(self, tmp_path, monkeypatch):
        from repro.lsm.wal import OP_PUT, encode_record

        wal = WriteAheadLog(tmp_path / "wal.log", fsync=True)
        frames = [encode_record(OP_PUT, b"k%d" % i, b"v%d" % i) for i in range(3)]
        assert wal.write_batch(frames) == sum(len(f) for f in frames)

        monkeypatch.setattr(
            wal_module, "_fsync", lambda fd: (_ for _ in ()).throw(OSError(5, "io"))
        )
        doomed = [encode_record(OP_PUT, b"d%d" % i, b"x") for i in range(2)]
        with pytest.raises(WalPoisonedError):
            wal.write_batch(doomed)

        replay = WriteAheadLog.replay(wal.path)
        assert [record.key for record in replay.records] == [b"k0", b"k1", b"k2"]
        wal.close()


def one_shot_sync_fault(monkeypatch):
    """Arm ``wal._fsync`` to fail exactly once, then behave normally."""
    state = {"armed": True, "calls": 0}
    real = os.fsync

    def flaky(fd):
        state["calls"] += 1
        if state["armed"]:
            state["armed"] = False
            raise OSError(5, "Input/output error")
        real(fd)

    monkeypatch.setattr(wal_module, "_fsync", flaky)
    return state


class TestStorePoisoning:
    def test_sync_failure_fails_the_store(self, tmp_path, monkeypatch):
        events = EventLog()
        obs = Observability(events=events)
        store = LSMStore(tmp_path / "db", fsync=True, obs=obs)
        store.put("acked", {"n": 1})

        one_shot_sync_fault(monkeypatch)
        with pytest.raises(WalPoisonedError):
            store.put("doomed", {"n": 2})

        # Every further mutation is rejected -- never retried (fsyncgate).
        with pytest.raises(WalPoisonedError):
            store.put("another", {"n": 3})
        with pytest.raises(WalPoisonedError):
            store.delete("acked")
        with pytest.raises(WalPoisonedError):
            store.flush()

        # Reads of acknowledged data keep working on the live store.
        assert store.get("acked") == {"n": 1}
        with pytest.raises(KeyNotFoundError):
            store.get("doomed")

        assert store.stats()["wal_poisoned"] is True
        assert obs.registry.counter("lsm.wal.sync_failures").value == 1
        (event,) = events.tail(kind="lsm_wal_poisoned")
        assert event["batch_records"] == 1

        crashed = crash_copy(store, tmp_path)
        store.close()

        # Recovery: acked writes present, the failed write is NOT
        # resurrected, and the reopened store accepts writes again.
        with LSMStore(crashed, fsync=True) as recovered:
            assert recovered.get("acked") == {"n": 1}
            with pytest.raises(KeyNotFoundError):
                recovered.get("doomed")
            recovered.put("fresh", {"n": 4})
            assert recovered.get("fresh") == {"n": 4}

    def test_poisoned_store_still_closes_cleanly(self, tmp_path, monkeypatch):
        store = LSMStore(tmp_path / "db", fsync=True)
        store.put("acked", 1)
        one_shot_sync_fault(monkeypatch)
        with pytest.raises(WalPoisonedError):
            store.put("doomed", 2)
        store.close()  # drain-or-reject close must not hang or raise
        with pytest.raises(StoreClosedError):
            store.put("late", 3)

    def test_sync_failure_fails_every_writer_in_the_batch(
        self, tmp_path, monkeypatch
    ):
        """One bad fsync covers many writers: all of them must see it."""
        store = LSMStore(tmp_path / "db", fsync=True)
        store.put("acked", 0)

        entered = threading.Event()
        release = threading.Semaphore(0)
        real_fsync = os.fsync
        calls = {"n": 0}

        def gated_fsync(fd):
            calls["n"] += 1
            if calls["n"] == 1:
                real_fsync(fd)
                entered.set()
                for _ in range(3):
                    assert release.acquire(timeout=5.0)
                return
            raise OSError(5, "Input/output error")

        monkeypatch.setattr(wal_module, "_fsync", gated_fsync)

        results: dict[int, BaseException | None] = {}

        def write(index):
            try:
                store.put(f"w{index}", index)
                results[index] = None
            except BaseException as exc:  # noqa: BLE001
                results[index] = exc

        leader = threading.Thread(target=write, args=(0,))
        leader.start()
        entered.wait(timeout=5.0)
        store._pipeline._enqueue_hook = release.release
        followers = [threading.Thread(target=write, args=(i,)) for i in (1, 2, 3)]
        for thread in followers:
            thread.start()
        for thread in followers + [leader]:
            thread.join(timeout=5.0)
        store._pipeline._enqueue_hook = None

        assert results[0] is None  # the gated batch was durably synced
        assert all(isinstance(results[i], WalPoisonedError) for i in (1, 2, 3))
        # None of the failed batch became visible.
        assert store.get("w0") == 0
        for index in (1, 2, 3):
            with pytest.raises(KeyNotFoundError):
                store.get(f"w{index}")
        store.close()


class TestGroupCommitStore:
    def test_deterministic_batch_through_the_store(self, tmp_path, monkeypatch):
        obs = Observability()
        store = LSMStore(tmp_path / "db", fsync=True, obs=obs)

        entered = threading.Event()
        release = threading.Semaphore(0)
        real_fsync = os.fsync
        calls = {"n": 0}

        def gated_fsync(fd):
            calls["n"] += 1
            if calls["n"] == 1:
                entered.set()
                for _ in range(3):
                    assert release.acquire(timeout=5.0)
            real_fsync(fd)

        monkeypatch.setattr(wal_module, "_fsync", gated_fsync)

        def write(index):
            store.put(f"w{index}", index)

        leader = threading.Thread(target=write, args=(0,))
        leader.start()
        entered.wait(timeout=5.0)
        store._pipeline._enqueue_hook = release.release
        followers = [threading.Thread(target=write, args=(i,)) for i in (1, 2, 3)]
        for thread in followers:
            thread.start()
        for thread in followers + [leader]:
            thread.join(timeout=5.0)
        store._pipeline._enqueue_hook = None

        # w0 alone, then w1..w3 under a single write+sync.
        assert store.stats()["group_commit"] == {
            "batches": 2,
            "committed": 4,
            "largest_batch": 3,
        }
        assert calls["n"] == 2
        assert obs.registry.counter("lsm.wal.group_commits").value == 2
        assert obs.registry.counter("lsm.wal.appends").value == 4
        batch_records = obs.registry.histogram("lsm.wal.batch_records")
        assert batch_records.count == 2
        assert batch_records.maximum == 3.0
        for index in range(4):
            assert store.get(f"w{index}") == index
        store.close()

    def test_concurrent_durable_writers_survive_crash(self, tmp_path):
        """8 fsync=True writers over overlapping keys; every acked write
        must survive a crash-sim recovery, bit for bit."""
        obs = Observability()
        store = LSMStore(
            tmp_path / "db",
            fsync=True,
            obs=obs,
            memtable_bytes=16 * 1024,  # force seals mid-soak
        )

        threads_n, ops_n = 8, 40
        barrier = threading.Barrier(threads_n)
        acked: list[list[tuple[str, int]]] = [[] for _ in range(threads_n)]
        failures: list[BaseException] = []

        def worker(t):
            barrier.wait(timeout=10.0)
            try:
                for i in range(ops_n):
                    if i % 4 == 3:
                        key = f"shared-{i % 5}"  # cross-thread contention
                    else:
                        key = f"t{t}-k{i % 10}"  # per-thread overwrites
                    value = t * 1000 + i
                    store.put(key, value)
                    acked[t].append((key, value))
            except BaseException as exc:  # noqa: BLE001
                failures.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert failures == []
        assert sum(len(a) for a in acked) == threads_n * ops_n

        crashed = crash_copy(store, tmp_path)
        live = {key: store.get(key) for key in store.keys()}

        # Per-thread keys are written by exactly one thread, so the last
        # acked value must be the visible one.
        for t in range(threads_n):
            last = {k: v for k, v in acked[t] if k.startswith(f"t{t}-")}
            for key, value in last.items():
                assert live[key] == value, key

        appends = obs.registry.counter("lsm.wal.appends").value
        commits = obs.registry.counter("lsm.wal.group_commits").value
        assert appends == threads_n * ops_n
        assert 0 < commits <= appends
        assert obs.registry.histogram("lsm.wal.batch_records").count == commits

        store.close()

        # Recovery reconstructs exactly the live state: replay order is
        # visibility order, so overlapping writers lose nothing and
        # resurrect nothing.
        with LSMStore(crashed, fsync=True) as recovered:
            recovered_state = {key: recovered.get(key) for key in recovered.keys()}
        assert recovered_state == live

    def test_size_triggered_seal_waits_for_the_batch_boundary(
        self, tmp_path, monkeypatch
    ):
        """A batch whose applies cross the memtable budget must seal at
        the batch boundary, not mid-batch: with a mid-batch seal the
        batch's tail lands in the new memtable while its only durable
        copy sits in the old WAL segment, which the inline flush of the
        sealed memtable unlinks -- a crash then loses acked writes."""
        value = "x" * 300  # ~370 bytes per memtable entry with overhead
        store = LSMStore(
            tmp_path / "db",
            fsync=True,
            memtable_bytes=800,  # one write fits; a 4-write batch does not
        )

        entered = threading.Event()
        release = threading.Semaphore(0)
        real_fsync = os.fsync
        calls = {"n": 0}

        def gated_fsync(fd):
            calls["n"] += 1
            if calls["n"] == 1:
                entered.set()
                for _ in range(3):
                    assert release.acquire(timeout=5.0)
            real_fsync(fd)

        monkeypatch.setattr(wal_module, "_fsync", gated_fsync)

        failures: list[BaseException] = []

        def write(index):
            try:
                store.put(f"w{index}", value)
            except BaseException as exc:  # noqa: BLE001
                failures.append(exc)

        leader = threading.Thread(target=write, args=(0,))
        leader.start()
        entered.wait(timeout=5.0)
        store._pipeline._enqueue_hook = release.release
        followers = [threading.Thread(target=write, args=(i,)) for i in (1, 2, 3)]
        for thread in followers:
            thread.start()
        for thread in followers + [leader]:
            thread.join(timeout=5.0)
        store._pipeline._enqueue_hook = None
        assert failures == []

        # The w1..w3 batch crossed the budget: the boundary seal flushed
        # every record of the batch (inline scheduler) and unlinked the
        # sealed WAL segment.
        stats = store.stats()
        assert stats["sstables"] == 1
        assert stats["memtable_entries"] == 0

        crashed = crash_copy(store, tmp_path)
        store.close()
        with LSMStore(crashed) as recovered:
            for index in range(4):
                assert recovered.get(f"w{index}") == value, f"w{index}"

    def test_write_queued_behind_a_flush_barrier_survives_crash(
        self, tmp_path, monkeypatch
    ):
        """A write enqueued behind a flush() barrier must commit to the
        post-seal WAL segment: were it batched with the barrier, its
        frame would be written to the pre-seal segment that the
        barrier's flush immediately unlinks, losing the acked write on
        crash."""
        store = LSMStore(tmp_path / "db", fsync=True)

        entered = threading.Event()
        release = threading.Event()
        real_fsync = os.fsync
        calls = {"n": 0}

        def gated_fsync(fd):
            calls["n"] += 1
            if calls["n"] == 1:
                entered.set()
                assert release.wait(timeout=5.0)
            real_fsync(fd)

        monkeypatch.setattr(wal_module, "_fsync", gated_fsync)

        enqueued = threading.Semaphore(0)
        results: dict[str, BaseException | None] = {}

        def run(name, fn):
            def target():
                try:
                    fn()
                    results[name] = None
                except BaseException as exc:  # noqa: BLE001
                    results[name] = exc

            thread = threading.Thread(target=target)
            thread.start()
            return thread

        leader = run("lead", lambda: store.put("lead", 0))
        entered.wait(timeout=5.0)
        store._pipeline._enqueue_hook = enqueued.release
        # Deterministic queue order behind the stalled leader:
        # put(a), flush() barrier, put(b).
        threads = [run("a", lambda: store.put("a", 1))]
        assert enqueued.acquire(timeout=5.0)
        threads.append(run("flush", store.flush))
        assert enqueued.acquire(timeout=5.0)
        threads.append(run("b", lambda: store.put("b", 2)))
        assert enqueued.acquire(timeout=5.0)
        release.set()
        for thread in threads + [leader]:
            thread.join(timeout=5.0)
        store._pipeline._enqueue_hook = None
        assert results == {"lead": None, "a": None, "flush": None, "b": None}

        # The barrier sealed {lead, a} into an SSTable (inline scheduler)
        # and unlinked the pre-seal WAL; "b" landed in the fresh segment.
        stats = store.stats()
        assert stats["sstables"] == 1
        assert stats["memtable_entries"] == 1

        crashed = crash_copy(store, tmp_path)
        store.close()
        with LSMStore(crashed) as recovered:
            assert recovered.get("lead") == 0
            assert recovered.get("a") == 1
            assert recovered.get("b") == 2

    def test_flush_barrier_orders_after_queued_writes(self, tmp_path):
        scheduler = ManualScheduler()
        store = LSMStore(tmp_path / "db", scheduler=scheduler)
        store.put("a", 1)
        store.flush()  # a barrier through the pipeline, not a direct seal
        store.put("b", 2)

        stats = store.stats()
        assert stats["immutable_memtables"] == 1  # "a" sealed by the barrier
        assert stats["memtable_entries"] == 1  # "b" landed after the seal
        scheduler.run_pending()
        stats = store.stats()
        assert stats["sstables"] == 1
        assert store.get("a") == 1
        assert store.get("b") == 2
        store.close()

    def test_close_waits_for_inflight_durable_write(self, tmp_path, monkeypatch):
        store = LSMStore(tmp_path / "db", fsync=True)

        in_sync = threading.Event()
        release = threading.Event()
        real_fsync = os.fsync

        def gated_fsync(fd):
            if not in_sync.is_set():
                in_sync.set()
                assert release.wait(timeout=5.0)
            real_fsync(fd)

        monkeypatch.setattr(wal_module, "_fsync", gated_fsync)

        result: dict[str, BaseException | None] = {}

        def write():
            try:
                store.put("inflight", 42)
                result["error"] = None
            except BaseException as exc:  # noqa: BLE001
                result["error"] = exc

        writer = threading.Thread(target=write)
        writer.start()
        in_sync.wait(timeout=5.0)
        closer = threading.Thread(target=store.close)
        closer.start()
        release.set()
        writer.join(timeout=5.0)
        closer.join(timeout=5.0)
        assert not closer.is_alive()

        # The in-flight write was drained, not dropped: it was durably
        # acknowledged and survives reopen.
        assert result["error"] is None
        with pytest.raises(StoreClosedError):
            store.put("late", 1)
        with LSMStore(tmp_path / "db") as reopened:
            assert reopened.get("inflight") == 42

    def test_concurrent_close_waits_for_the_first_close(
        self, tmp_path, monkeypatch
    ):
        """A second close() racing the first must not return until the
        store is actually closed (pipeline drained, flushes done)."""
        store = LSMStore(tmp_path / "db", fsync=True)

        in_sync = threading.Event()
        release = threading.Event()
        real_fsync = os.fsync

        def gated_fsync(fd):
            if not in_sync.is_set():
                in_sync.set()
                assert release.wait(timeout=5.0)
            real_fsync(fd)

        monkeypatch.setattr(wal_module, "_fsync", gated_fsync)

        writer = threading.Thread(target=lambda: store.put("inflight", 1))
        writer.start()
        in_sync.wait(timeout=5.0)

        # Two concurrent closers; the in-flight durable write keeps the
        # winning closer blocked in the pipeline drain until released,
        # so the losing closer must wait for it -- whichever close()
        # returns, the store must be fully closed at that point.
        closed_at_return: dict[int, bool] = {}

        def close(index):
            store.close()
            closed_at_return[index] = store._closed

        closers = [threading.Thread(target=close, args=(i,)) for i in (0, 1)]
        for thread in closers:
            thread.start()
        release.set()
        for thread in closers + [writer]:
            thread.join(timeout=5.0)
        assert not any(t.is_alive() for t in closers)
        assert closed_at_return == {0: True, 1: True}
        with pytest.raises(StoreClosedError):
            store.put("late", 1)
        with LSMStore(tmp_path / "db") as reopened:
            assert reopened.get("inflight") == 1

    def test_serial_writer_gets_one_batch_per_op(self, tmp_path):
        obs = Observability()
        with LSMStore(tmp_path / "db", obs=obs) as store:
            for i in range(10):
                store.put(f"k{i}", i)
            stats = store.stats()["group_commit"]
        assert stats["largest_batch"] == 1
        assert obs.registry.counter("lsm.wal.group_commits").value == 10

    def test_batch_bounds_are_store_parameters(self, tmp_path):
        with pytest.raises(ConfigurationError):
            LSMStore(tmp_path / "a", wal_batch_records=0)
        with pytest.raises(ConfigurationError):
            LSMStore(tmp_path / "b", wal_batch_bytes=0)
        with LSMStore(
            tmp_path / "c", wal_batch_records=4, wal_batch_bytes=1 << 16
        ) as store:
            store.put("k", 1)
            assert store.stats()["group_commit"]["committed"] == 1
