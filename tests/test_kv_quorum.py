"""Quorum replication: stamps, Merkle trees, R+W>N semantics, anti-entropy."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    KeyNotFoundError,
    QuorumReadError,
    QuorumWriteError,
    StoreConnectionError,
)
from repro.kv import (
    InMemoryStore,
    MerkleTree,
    PartitionedStore,
    QuorumReplicatedStore,
    VersionStamp,
    deadline_scope,
)
from repro.kv.quorum import _unwrap
from repro.lsm.compaction import ManualScheduler
from repro.obs import EventLog, Observability


def make_group(n=3, *, r=2, w=2, **kwargs):
    members = [
        PartitionedStore(InMemoryStore(), name=f"member-{i}") for i in range(n)
    ]
    group = QuorumReplicatedStore(
        members, read_quorum=r, write_quorum=w, name="grp", **kwargs
    )
    return group, members


class _Hooked(InMemoryStore):
    """An in-memory member whose reads and writes call optional test hooks:
    ``before_put``/``after_put(key, raw)`` around a write, ``after_get(key)``
    once a read has answered (value or miss)."""

    before_put = after_put = after_get = None

    def put(self, key, value):
        if self.before_put:
            self.before_put(key, value)
        super().put(key, value)
        if self.after_put:
            self.after_put(key, value)

    def get(self, key):
        try:
            return super().get(key)
        finally:
            if self.after_get:
                self.after_get(key)


def hooked_group(*, r=2, w=2):
    """N=3 group over partitionable hooked members a, b, c."""
    hooked = [_Hooked(name) for name in "abc"]
    members = [PartitionedStore(store, name=store.name) for store in hooked]
    group = QuorumReplicatedStore(
        members, read_quorum=r, write_quorum=w, name="grp"
    )
    return group, members, hooked


def value_of(store, key="k"):
    return _unwrap(InMemoryStore.get(store, key))[1]


def on_value(value, event):
    """A put hook that sets *event* when the write carries *value*."""
    return lambda key, raw: event.set() if _unwrap(raw)[1] == value else None


class TestVersionStamp:
    def test_ordering_is_counter_then_writer(self):
        assert VersionStamp(2, "a") > VersionStamp(1, "z")
        assert VersionStamp(1, "b") > VersionStamp(1, "a")

    def test_token_roundtrip(self):
        stamp = VersionStamp(42, "node-7")
        assert VersionStamp.parse(stamp.token()) == stamp

    def test_parse_rejects_foreign_tokens(self):
        with pytest.raises(ConfigurationError):
            VersionStamp.parse("sha1:abcdef")


class TestMerkleTree:
    def test_empty_trees_agree(self):
        a, b = MerkleTree(), MerkleTree()
        assert a.root() == b.root()
        divergent, compared = a.diff(b)
        assert divergent == [] and compared == 1

    def test_same_updates_same_root(self):
        a, b = MerkleTree(), MerkleTree()
        for tree in (a, b):
            tree.update("k1", VersionStamp(1, "n"))
            tree.update("k2", VersionStamp(2, "n"), tombstone=True)
        assert a.root() == b.root()

    def test_update_changes_root_and_discard_restores_it(self):
        tree = MerkleTree()
        empty = tree.root()
        tree.update("k", VersionStamp(1, "n"))
        assert tree.root() != empty
        tree.discard("k")
        assert tree.root() == empty
        assert tree.tracked == 0

    def test_restamping_is_incremental_not_additive(self):
        a, b = MerkleTree(), MerkleTree()
        a.update("k", VersionStamp(1, "n"))
        a.update("k", VersionStamp(2, "n"))  # replaces, not accumulates
        b.update("k", VersionStamp(2, "n"))
        assert a.root() == b.root()

    def test_diff_pinpoints_divergent_buckets(self):
        a, b = MerkleTree(depth=4), MerkleTree(depth=4)
        for index in range(50):
            stamp = VersionStamp(1, "n")
            a.update(f"key-{index}", stamp)
            b.update(f"key-{index}", stamp)
        b.update("key-7", VersionStamp(2, "n"))
        divergent, compared = a.diff(b)
        assert len(divergent) == 1
        assert "key-7" in a.bucket_entries(divergent[0])
        # Root-down descent: far fewer comparisons than the 16 leaves + tree.
        assert compared <= 1 + 2 * a.depth

    def test_tombstones_hash_differently_from_values(self):
        a, b = MerkleTree(), MerkleTree()
        a.update("k", VersionStamp(1, "n"))
        b.update("k", VersionStamp(1, "n"), tombstone=True)
        assert a.root() != b.root()

    def test_depth_bounds(self):
        with pytest.raises(ConfigurationError):
            MerkleTree(depth=0)
        with pytest.raises(ConfigurationError):
            MerkleTree(depth=17)

    def test_diff_requires_equal_depth(self):
        with pytest.raises(ConfigurationError):
            MerkleTree(depth=4).diff(MerkleTree(depth=5))


class TestConfiguration:
    def test_needs_two_members(self):
        with pytest.raises(ConfigurationError):
            QuorumReplicatedStore([InMemoryStore()], read_quorum=1, write_quorum=1)

    def test_quorums_bounded_by_n(self):
        members = [InMemoryStore(), InMemoryStore(), InMemoryStore()]
        with pytest.raises(ConfigurationError):
            QuorumReplicatedStore(members, read_quorum=0, write_quorum=3)
        with pytest.raises(ConfigurationError):
            QuorumReplicatedStore(members, read_quorum=2, write_quorum=4)

    def test_r_plus_w_must_exceed_n(self):
        members = [InMemoryStore(), InMemoryStore(), InMemoryStore()]
        with pytest.raises(ConfigurationError):
            QuorumReplicatedStore(members, read_quorum=1, write_quorum=2)

    def test_anti_entropy_every_must_be_positive(self):
        members = [InMemoryStore(), InMemoryStore()]
        with pytest.raises(ConfigurationError):
            QuorumReplicatedStore(
                members, read_quorum=1, write_quorum=2, anti_entropy_every=0
            )


class TestQuorumBasics:
    def test_roundtrip(self):
        group, _ = make_group()
        group.put("k", {"a": 1})
        assert group.get("k") == {"a": 1}
        group.close()

    def test_none_is_a_legal_value(self):
        group, _ = make_group()
        group.put("k", None)
        assert group.get("k") is None
        group.close()

    def test_put_with_version_returns_stamp_token(self):
        group, _ = make_group()
        token = group.put_with_version("k", "v")
        stamp = VersionStamp.parse(token)
        assert stamp.writer == group.node_id
        value, read_token = group.get_with_version("k")
        assert value == "v" and read_token == token
        group.close()

    def test_versions_advance_per_write(self):
        group, _ = make_group()
        first = VersionStamp.parse(group.put_with_version("k", 1))
        second = VersionStamp.parse(group.put_with_version("k", 2))
        assert second > first
        group.close()

    def test_members_store_envelopes_not_raw_values(self):
        group, members = make_group()
        group.put("k", "v")
        group.drain()
        stamp, value, tombstone = _unwrap(members[0].get("k"))
        assert value == "v" and not tombstone and stamp.counter >= 1
        group.close()

    def test_delete_reports_existence_and_tombstones(self):
        group, members = make_group()
        group.put("k", "v")
        assert group.delete("k") is True
        assert group.delete("k") is False
        with pytest.raises(KeyNotFoundError):
            group.get("k")
        group.drain()
        # The tombstone is still physically present on members (for
        # convergence), just invisible through the group.
        _stamp, _value, tombstone = _unwrap(members[0].get("k"))
        assert tombstone
        group.close()

    def test_keys_excludes_tombstones(self):
        group, _ = make_group()
        group.put("a", 1)
        group.put("b", 2)
        group.delete("a")
        group.drain()
        assert set(group.keys()) == {"b"}
        group.close()

    def test_keys_includes_legacy_member_data(self):
        group, members = make_group()
        members[0].put("legacy", "raw")  # written outside the quorum path
        group.put("quorum", 1)
        group.drain()
        assert set(group.keys()) == {"legacy", "quorum"}
        group.close()

    def test_quorum_write_beats_legacy_value(self):
        group, members = make_group()
        for member in members:
            member.put("k", "old-raw")
        group.put("k", "new")
        group.drain()
        assert group.get("k") == "new"
        group.close()

    def test_missing_key_raises_key_not_found(self):
        group, _ = make_group()
        with pytest.raises(KeyNotFoundError):
            group.get("ghost")
        group.close()

    def test_close_owns_members_by_default(self):
        group, members = make_group()
        group.put("k", "v")
        group.drain()
        group.close()
        with pytest.raises(Exception):
            members[0].get("k")

    def test_close_leaves_borrowed_members_open(self):
        members = [InMemoryStore(), InMemoryStore()]
        group = QuorumReplicatedStore(
            members, read_quorum=1, write_quorum=2, owns_members=False
        )
        group.put("k", "v")
        group.drain()
        group.close()
        assert _unwrap(members[0].get("k"))[1] == "v"


class TestDivergenceResolution:
    def seed_divergence(self, **kwargs):
        """Member 2 misses an update: members 0/1 at rev 1, member 2 at rev 0."""
        group, members = make_group(**kwargs)
        group.put("k", {"rev": 0})
        group.drain()
        members[2].partition()
        group.put("k", {"rev": 1})
        group.drain()
        members[2].heal()
        return group, members

    def test_read_resolves_to_newest_version(self):
        group, _ = self.seed_divergence()
        for _ in range(8):  # whichever R members answer, the winner is rev 1
            assert group.get("k") == {"rev": 1}
        group.close()

    def test_read_repairs_stale_member_that_answered(self):
        group, members = self.seed_divergence(r=3, w=1)  # all members answer
        assert group.get("k") == {"rev": 1}
        group.drain()
        assert group.read_repairs == 1
        assert _unwrap(members[2].get("k"))[1] == {"rev": 1}
        group.close()

    def test_read_repair_can_be_disabled(self):
        group, members = self.seed_divergence(r=3, w=1, read_repair=False)
        assert group.get("k") == {"rev": 1}
        group.drain()
        assert group.read_repairs == 0
        assert _unwrap(members[2].get("k"))[1] == {"rev": 0}
        group.close()

    def test_read_repair_fills_members_missing_the_key(self):
        group, members = make_group(r=3, w=1)
        members[2].partition()
        group.put("k", "v")
        group.drain()
        members[2].heal()
        assert group.get("k") == "v"
        group.drain()
        assert _unwrap(members[2].get("k"))[1] == "v"
        group.close()

    def test_tombstone_wins_read_repair(self):
        group, members = self.seed_divergence(r=3, w=1)
        group.delete("k")
        group.drain()
        with pytest.raises(KeyNotFoundError):
            group.get("k")
        group.drain()
        assert _unwrap(members[2].get("k"))[2] is True  # tombstoned
        group.close()

    def test_lamport_merges_across_coordinators(self):
        """A second coordinator over the same members orders its writes
        after everything it has read, despite a fresh local counter."""
        members = [InMemoryStore() for _ in range(3)]
        first = QuorumReplicatedStore(
            members, read_quorum=2, write_quorum=2,
            node_id="a", owns_members=False,
        )
        for index in range(5):
            first.put("k", {"from": "a", "rev": index})
        first.drain()
        second = QuorumReplicatedStore(
            members, read_quorum=2, write_quorum=2,
            node_id="b", owns_members=False,
        )
        assert second.get("k") == {"from": "a", "rev": 4}  # observes stamp 5
        token = second.put_with_version("k", {"from": "b"})
        assert VersionStamp.parse(token).counter > 5 - 1
        second.drain()
        first.drain()
        assert first.get("k") == {"from": "b"}
        first.close()
        second.close()


class TestFailureModes:
    def test_write_succeeds_degraded_with_one_member_down(self):
        group, members = make_group()
        members[2].partition()
        group.put("k", "v")
        group.drain()
        assert group.writes == 1
        assert group.degraded_ops == 1
        assert group.write_partial_failures == 1
        assert group.get("k") == "v"
        group.close()

    def test_write_fails_fast_below_w(self):
        group, members = make_group()
        members[1].partition()
        members[2].partition()
        with pytest.raises(QuorumWriteError) as excinfo:
            group.put("k", "v")
        group.drain()
        assert excinfo.value.needed == 2
        assert excinfo.value.failures == 2
        assert group.failed_fast == 1
        assert group.writes == 0
        group.close()

    def test_quorum_errors_are_retryable_connection_errors(self):
        assert issubclass(QuorumWriteError, StoreConnectionError)
        assert issubclass(QuorumReadError, StoreConnectionError)

    def test_read_fails_fast_below_r(self):
        group, members = make_group()
        group.put("k", "v")
        group.drain()
        members[0].partition()
        members[1].partition()
        with pytest.raises(QuorumReadError):
            group.get("k")
        group.drain()
        assert group.failed_fast == 1
        group.close()

    def test_read_survives_one_member_down(self):
        group, members = make_group()
        for index in range(10):
            group.put(f"key-{index}", index)
        group.drain()
        members[1].partition()
        for index in range(10):
            assert group.get(f"key-{index}") == index
        group.drain()
        assert group.failed_fast == 0
        group.close()

    def test_confirmed_miss_is_not_a_member_failure(self):
        group, members = make_group()
        members[0].partition()  # one failure tolerated at R=2/N=3
        with pytest.raises(KeyNotFoundError):
            group.get("ghost")
        group.drain()
        group.close()

    def test_expired_deadline_aborts_quorum_wait(self):
        clock = {"now": 0.0}
        group, members = make_group()
        group.put("k", "v")
        group.drain()
        members[1].partition()
        members[2].partition()
        with deadline_scope(0.05, clock=lambda: clock["now"]):
            clock["now"] = 0.2
            with pytest.raises(DeadlineExceededError):
                group.get("k")
            with pytest.raises(DeadlineExceededError):
                group.put("k", "v2")
        group.drain()
        group.close()


class TestMemberNeverMovesBackwards:
    """Regressions: a stale write must never land over a newer one, so an
    acknowledged write stays visible to every read quorum."""

    def test_slow_member_cannot_land_an_older_write_after_a_newer_ack(self):
        group, members, hooked = hooked_group()
        release_v1 = threading.Event()

        def hold_v1(key, raw):
            if _unwrap(raw)[1] == "v1":
                assert release_v1.wait(10)

        hooked[1].before_put = hold_v1               # b is slow on v1
        hooked[2].after_put = on_value("v2", release_v1)
        group.put("k", "v1")                         # acked by a and c
        members[0].partition()
        group.put("k", "v2")                         # acked by b and c
        group.drain()
        members[0].heal()
        members[2].partition()                       # read quorum = {a, b}
        assert group.get("k") == "v2"
        assert value_of(hooked[1]) == "v2"
        group.close()

    def test_read_repair_never_overwrites_a_newer_write(self):
        group, members, hooked = hooked_group(r=3)
        members[2].partition()
        group.put("k", "v1")                         # c missed v1
        group.drain()
        members[2].heal()
        b_answered, c_answered, c_has_v2 = (threading.Event() for _ in range(3))
        hooked[1].after_get = lambda key: b_answered.set()
        hooked[2].after_get = lambda key: c_answered.set()
        hooked[2].after_put = on_value("v2", c_has_v2)

        def write_v2_mid_read(key):
            hooked[0].after_get = None
            assert b_answered.wait(10) and c_answered.wait(10)
            group.put("k", "v2")                     # lands on c before repair
            assert c_has_v2.wait(10)

        hooked[0].after_get = write_v2_mid_read
        assert group.get("k") == "v1"                # resolved before v2
        group.drain()
        assert value_of(hooked[2]) == "v2"           # repair of v1 skipped
        assert group.read_repairs == 0
        assert group.get("k") == "v2"
        group.close()

    def test_anti_entropy_copy_never_overwrites_a_newer_write(self):
        group, members, hooked = hooked_group()
        members[2].partition()
        group.put("k", "v1")                         # c missed v1
        group.drain()
        members[2].heal()
        landed_on_c = []
        hooked[2].after_put = lambda key, raw: landed_on_c.append(_unwrap(raw)[1])

        def write_v2_mid_copy(key):
            hooked[0].after_get = hooked[1].after_get = None
            group.put("k", "v2")                     # lands on c before the copy
            # Wait for v2 on every member, trees included: a member still
            # at v1 when the round reaches its pair with c would have v2
            # copied forward to it, a repair this test would count.
            assert group.drain(10)

        hooked[0].after_get = hooked[1].after_get = write_v2_mid_copy
        report = group.anti_entropy_round()          # copies the v1 it read
        group.drain()
        assert landed_on_c == ["v2"]                 # the older copy was skipped
        assert report.keys_repaired == 0
        assert report.member_failures == 0           # skipped, not failed
        assert report.converged is True
        assert group.get("k") == "v2"
        group.close()

    def test_read_repair_restores_a_copy_lost_out_of_band(self):
        """The member's tree still holds the winner's stamp; an equal stamp
        is the same write, so the repair rewrites it instead of skipping."""
        group, _members, hooked = hooked_group(r=3)
        group.put("k", "v")
        group.drain()
        hooked[1].delete("k")
        assert group.get("k") == "v"
        assert group.read_repairs == 1
        assert value_of(hooked[1]) == "v"
        group.close()


class TestMemberWorkers:
    def test_operations_start_no_threads_after_the_first(self, thread_starts):
        group, _ = make_group()
        group.put("k", 0)
        group.get("k")
        group.drain()
        assert len(thread_starts) == 3               # one worker per member
        thread_starts.clear()
        for index in range(100):
            group.put(f"key-{index}", index)
            assert group.get(f"key-{index}") == index
        assert group.drain(timeout=10)
        assert thread_starts == []
        group.close()

    def test_concurrent_callers_keep_counters_exact(self):
        """More callers than cores, a tiny switch interval: the shared
        fan-out state and counters lose no update."""
        group, _ = make_group()
        errors = []

        def caller(n):
            try:
                for i in range(50):
                    group.put(f"c{n}-{i}", i)
                    assert group.get(f"c{n}-{i}") == i
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller, args=(n,)) for n in range(8)]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in callers)
        assert errors == []
        assert group.drain(timeout=10)
        assert group.writes == group.reads == 400
        assert group.degraded_ops == group.write_partial_failures == 0
        assert group.status()["in_sync"]
        group.close()

    def test_member_bug_fails_the_quorum_instead_of_hanging(self):
        group, _members, hooked = hooked_group()

        def broken(key, raw):
            raise TypeError("member bug")

        hooked[1].before_put = hooked[2].before_put = broken
        with pytest.raises(QuorumWriteError) as excinfo:
            group.put("k", "v")
        assert isinstance(excinfo.value.__cause__, TypeError)
        group.close()

    def test_close_leaves_no_worker_alive(self):
        def workers():
            return [t for t in threading.enumerate() if t.name.startswith("closing-")]

        group = QuorumReplicatedStore(
            [InMemoryStore() for _ in range(3)],
            read_quorum=2, write_quorum=2, name="closing",
        )
        group.put("k", "v")
        assert len(workers()) == 3
        group.close()
        assert workers() == []

    def test_drain_makes_straggler_counters_exact(self):
        group, _members, hooked = hooked_group()
        gate = threading.Event()

        def fail_late(key, raw):
            assert gate.wait(10)
            raise StoreConnectionError("late failure")

        hooked[2].before_put = fail_late
        group.put("k", "v")                          # a and b ack; c in flight
        assert group.write_partial_failures == group.degraded_ops == 0
        gate.set()
        assert group.drain(timeout=10)
        assert group.write_partial_failures == group.degraded_ops == 1
        group.close()


class TestAntiEntropy:
    def diverge(self, keyspace=40, divergent=5, **kwargs):
        group, members = make_group(**kwargs)
        for index in range(keyspace):
            group.put(f"key-{index:02d}", {"rev": 0})
        group.drain()
        members[2].partition()
        for index in range(divergent):
            group.put(f"key-{index:02d}", {"rev": 1})
        group.drain()
        members[2].heal()
        return group, members

    def test_round_converges_after_partition(self):
        group, members = self.diverge()
        assert not group.status()["in_sync"]
        report = group.anti_entropy_round()
        assert report.converged
        assert group.status()["in_sync"]
        assert _unwrap(members[2].get("key-00"))[1] == {"rev": 1}
        assert members[2].name in report.repaired_members
        group.close()

    def test_scan_accounting_proves_no_full_scan(self):
        keyspace, divergent = 40, 5
        group, _ = self.diverge(keyspace=keyspace, divergent=divergent)
        report = group.anti_entropy_round()
        assert divergent <= report.keys_scanned < keyspace
        assert report.keys_repaired == divergent
        assert group.full_scans == 0
        group.close()

    def test_second_round_is_a_noop(self):
        group, _ = self.diverge()
        group.anti_entropy_round()
        second = group.anti_entropy_round()
        assert second.converged
        assert second.buckets_divergent == 0
        assert second.keys_scanned == 0
        # In-sync trees cost exactly one root comparison per pair.
        assert second.nodes_compared == second.pairs_compared
        group.close()

    def test_tombstones_propagate_through_anti_entropy(self):
        group, members = make_group()
        group.put("k", "v")
        group.drain()
        members[2].partition()
        group.delete("k")
        group.drain()
        members[2].heal()
        group.anti_entropy_round()
        assert _unwrap(members[2].get("k"))[2] is True
        with pytest.raises(KeyNotFoundError):
            group.get("k")
        group.close()

    def test_failed_fast_write_is_sloppy_and_anti_entropy_spreads_it(self):
        """A write refused below W is not rolled back: the one member that
        took it keeps it, and anti-entropy propagates that surviving copy."""
        group, members = make_group()
        group.put("k", {"rev": 0})
        group.drain()
        members[1].partition()
        members[2].partition()
        with pytest.raises(QuorumWriteError):
            group.put("k", {"rev": 1})
        group.drain()
        assert _unwrap(members[0].get("k"))[1] == {"rev": 1}
        members[1].heal()
        members[2].heal()
        assert not group.status()["in_sync"]
        report = group.anti_entropy_round()
        assert report.converged
        assert report.repaired_members == ["member-1", "member-2"]
        assert report.keys_repaired == 2  # one key, copied onto two members
        for member in members:
            assert _unwrap(member.get("k"))[1] == {"rev": 1}
        assert group.get("k") == {"rev": 1}
        group.close()

    def test_unreachable_member_defers_convergence(self):
        group, members = self.diverge()
        members[2].partition()  # still down when the round runs
        report = group.anti_entropy_round()
        assert not report.converged
        assert report.member_failures > 0
        members[2].heal()
        assert group.anti_entropy_round().converged
        group.close()

    def test_anti_entropy_every_schedules_on_manual_scheduler(self):
        scheduler = ManualScheduler()
        members = [InMemoryStore() for _ in range(3)]
        group = QuorumReplicatedStore(
            members, read_quorum=2, write_quorum=2,
            scheduler=scheduler, anti_entropy_every=3, owns_members=False,
        )
        for index in range(3):
            group.put(f"key-{index}", index)
        group.drain()
        assert scheduler.pending() == 1
        scheduler.run_pending()
        assert group.antientropy_rounds == 1
        group.put("key-3", 3)
        group.drain()
        assert scheduler.pending() == 0  # cadence counter reset
        group.close()

    def test_rebuild_trees_attaches_to_preexisting_data(self):
        members = [InMemoryStore() for _ in range(2)]
        members[0].put("a", "raw-a")
        members[1].put("a", "raw-b")  # differing legacy values
        group = QuorumReplicatedStore(
            members, read_quorum=1, write_quorum=2, owns_members=False
        )
        scanned = group.rebuild_trees()
        assert scanned == 2
        assert group.full_scans == 2
        assert not group.status()["in_sync"]
        report = group.anti_entropy_round()
        assert report.converged
        # Deterministic winner: both members now hold the same raw value.
        assert members[0].get("a") == members[1].get("a")
        group.close()


class TestObservabilityAndStatus:
    def test_metrics_and_events_emitted(self):
        obs = Observability(events=EventLog())
        group, members = make_group(obs=obs)
        members[2].partition()
        group.put("k", "v")
        group.drain()
        members[1].partition()
        with pytest.raises(QuorumWriteError):
            group.put("k", "v2")
        group.drain()
        members[1].heal()
        members[2].heal()
        group.anti_entropy_round()
        counters = obs.registry
        assert counters.counter("kv.quorum.writes").value == 1
        assert counters.counter("kv.quorum.write_partial").value >= 1
        assert counters.counter("kv.quorum.degraded").value == 1
        assert counters.counter("kv.quorum.failed_fast").value == 1
        assert counters.counter("kv.antientropy.rounds").value == 1
        kinds = {record["kind"] for record in obs.events.tail(50)}
        assert {"quorum_degraded", "quorum_failed_fast", "antientropy_round"} <= kinds
        group.close()

    def test_read_repair_metric_and_event(self):
        obs = Observability(events=EventLog())
        group, members = make_group(r=3, w=1, obs=obs)
        group.put("k", {"rev": 0})
        group.drain()
        members[2].partition()
        group.put("k", {"rev": 1})
        group.drain()
        members[2].heal()
        group.get("k")
        group.drain()
        assert obs.registry.counter("kv.quorum.read_repairs").value == 1
        (record,) = obs.events.tail(50, kind="quorum_read_repair")
        assert record["member"] == "member-2" and record["key"] == "k"
        group.close()

    def test_status_shape(self):
        group, _ = make_group()
        group.put("k", "v")
        group.drain()
        status = group.status()
        assert status["n"] == 3 and status["r"] == 2 and status["w"] == 2
        assert status["in_sync"] is True
        assert len(status["members"]) == 3
        assert all("merkle_root" in entry for entry in status["members"])
        assert status["counters"]["writes"] == 1
        group.close()


class TestUDSMIntegration:
    def test_quorum_factory_registers_monitored_group(self):
        from repro.udsm.manager import UniversalDataStoreManager

        with UniversalDataStoreManager() as udsm:
            for name in ("a", "b", "c"):
                udsm.register(name, InMemoryStore())
            group = udsm.quorum(["a", "b", "c"], read_quorum=2, write_quorum=2)
            group.put("k", "v")
            assert group.get("k") == "v"
            assert udsm.store("quorum") is group
            # Members hold envelopes: the quorum wrote through them.
            assert _unwrap(udsm.raw_store("a").get("k"))[1] == "v"

    def test_quorum_factory_inherits_udsm_observability(self):
        from repro.obs import Observability
        from repro.udsm.manager import UniversalDataStoreManager

        obs = Observability()
        with UniversalDataStoreManager(obs=obs) as udsm:
            for name in ("a", "b"):
                udsm.register(name, InMemoryStore())
            group = udsm.quorum(["a", "b"], read_quorum=1, write_quorum=2)
            group.put("k", "v")
            group.native()  # composite has no native handle
            assert obs.registry.counter("kv.quorum.writes").value == 1
