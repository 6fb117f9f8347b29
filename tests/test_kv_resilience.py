"""Failure injection, retries with backoff, and replicated stores."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.errors import (
    ConfigurationError,
    DataStoreError,
    KeyNotFoundError,
    StoreConnectionError,
    StoreUnavailableError,
)
from repro.kv import (
    FlakyStore,
    InMemoryStore,
    PartitionedStore,
    ReplicatedStore,
    RetryingStore,
)
from repro.obs import Observability


class TestFlakyStore:
    def test_injects_failures_at_configured_rate(self):
        flaky = FlakyStore(InMemoryStore(), failure_rate=0.5, seed=1)
        failures = 0
        for i in range(200):
            try:
                flaky.put(f"k{i}", i)
            except StoreConnectionError:
                failures += 1
        assert 60 < failures < 140
        assert flaky.injected_failures == failures

    def test_zero_rate_never_fails(self):
        flaky = FlakyStore(InMemoryStore(), failure_rate=0.0)
        for i in range(50):
            flaky.put(f"k{i}", i)
        assert flaky.injected_failures == 0

    def test_rate_one_always_fails(self):
        flaky = FlakyStore(InMemoryStore(), failure_rate=1.0)
        with pytest.raises(StoreConnectionError):
            flaky.get("k")

    def test_fail_before_leaves_store_untouched(self):
        inner = InMemoryStore()
        flaky = FlakyStore(inner, failure_rate=1.0)
        with pytest.raises(StoreConnectionError):
            flaky.put("k", 1)
        assert not inner.contains("k")

    def test_fail_after_applies_then_raises(self):
        """The 'did my write land?' failure mode."""
        inner = InMemoryStore()
        flaky = FlakyStore(inner, failure_rate=1.0, fail_after=True)
        with pytest.raises(StoreConnectionError):
            flaky.put("k", 1)
        assert inner.get("k") == 1  # it DID land

    def test_custom_error_factory(self):
        flaky = FlakyStore(
            InMemoryStore(), failure_rate=1.0, error_factory=lambda: TimeoutError("slow")
        )
        with pytest.raises(TimeoutError):
            flaky.get("k")

    def test_deterministic_with_seed(self):
        def run(seed):
            flaky = FlakyStore(InMemoryStore(), failure_rate=0.3, seed=seed)
            outcomes = []
            for i in range(50):
                try:
                    flaky.put(f"k{i}", i)
                    outcomes.append(True)
                except StoreConnectionError:
                    outcomes.append(False)
            return outcomes

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_invalid_rate(self):
        with pytest.raises(ConfigurationError):
            FlakyStore(InMemoryStore(), failure_rate=1.5)

    def test_failure_rates_reject_a_name_that_could_never_match(self):
        FlakyStore(InMemoryStore(), failure_rates={"put_many": 1.0, "size": 0.5})
        with pytest.raises(ConfigurationError, match="'gets'"):
            FlakyStore(InMemoryStore(), failure_rates={"gets": 1.0})


class TestRetryingStore:
    def test_retries_until_success(self):
        sleeps = []
        flaky = FlakyStore(InMemoryStore(), failure_rate=0.4, seed=3)
        store = RetryingStore(flaky, max_attempts=15, sleep=sleeps.append, seed=0)
        for i in range(50):
            store.put(f"k{i}", i)
            assert store.get(f"k{i}") == i
        assert store.retries > 0
        assert len(sleeps) == store.retries

    def test_gives_up_after_max_attempts(self):
        flaky = FlakyStore(InMemoryStore(), failure_rate=1.0)
        store = RetryingStore(flaky, max_attempts=3, sleep=lambda s: None)
        with pytest.raises(StoreConnectionError):
            store.get("k")
        assert store.retries == 2  # 3 attempts = 2 retries

    def test_semantic_errors_not_retried(self):
        store = RetryingStore(InMemoryStore(), max_attempts=5, sleep=lambda s: None)
        with pytest.raises(KeyNotFoundError):
            store.get("absent")
        assert store.retries == 0

    def test_backoff_grows_and_is_capped(self):
        sleeps: list[float] = []
        flaky = FlakyStore(InMemoryStore(), failure_rate=1.0)
        store = RetryingStore(
            flaky, max_attempts=6, base_delay=0.1, max_delay=0.4,
            sleep=sleeps.append, seed=1,
        )
        with pytest.raises(StoreConnectionError):
            store.get("k")
        assert len(sleeps) == 5
        # Full jitter: each sleep within [0, min(max_delay, base*2^n)]
        ceilings = [0.1, 0.2, 0.4, 0.4, 0.4]
        for actual, ceiling in zip(sleeps, ceilings):
            assert 0 <= actual <= ceiling

    def test_custom_retry_on(self):
        class Transient(Exception):
            pass

        attempts = []

        class Erratic(InMemoryStore):
            def get(self, key):
                attempts.append(1)
                if len(attempts) < 3:
                    raise Transient()
                return super().get(key)

        inner = Erratic()
        inner.put("k", "v")
        store = RetryingStore(
            inner, max_attempts=5, retry_on=(Transient,), sleep=lambda s: None
        )
        assert store.get("k") == "v"
        assert len(attempts) == 3

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            RetryingStore(InMemoryStore(), max_attempts=0)

    def test_retries_counter_survives_concurrent_hammering(self):
        """One RetryingStore is shared by pool workers, quorum fan-out and
        hedges; a bare ``retries += 1`` would lose updates between them."""
        per_thread, threads_n = 300, 8

        class FailsEveryFirstAttempt(InMemoryStore):
            attempts = threading.local()

            def contains(self, key):
                self.attempts.n = getattr(self.attempts, "n", 0) + 1
                if self.attempts.n % 2:
                    raise StoreConnectionError("transient")
                return False

        store = RetryingStore(FailsEveryFirstAttempt(), sleep=lambda s: None)

        def hammer():
            for _ in range(per_thread):
                store.contains("k")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert store.retries == per_thread * threads_n


class TestReplicatedStore:
    def make(self, replica_count=2, **kwargs):
        primary = InMemoryStore("primary")
        replicas = [InMemoryStore(f"replica{i}") for i in range(replica_count)]
        return ReplicatedStore(primary, replicas, **kwargs), primary, replicas

    def test_writes_reach_everyone(self):
        store, primary, replicas = self.make()
        store.put("k", "v")
        assert primary.get("k") == "v"
        for replica in replicas:
            assert replica.get("k") == "v"

    def test_read_fails_over_to_replica(self):
        store, primary, replicas = self.make()
        store.put("k", "v")
        primary.close()  # primary outage
        assert store.get("k") == "v"
        assert store.failover_reads == 1

    def test_replica_write_failure_tolerated(self):
        primary = InMemoryStore("primary")
        dead = InMemoryStore("dead")
        dead.close()
        store = ReplicatedStore(primary, [dead])
        store.put("k", "v")  # no exception
        assert store.replica_write_failures == 1
        assert store.get("k") == "v"

    def test_read_repair_fixes_members_tried_before_the_server(self):
        store, primary, replicas = self.make(1)
        # The replica has the value; the primary missed the write.
        replicas[0].put("k", "v")
        assert store.get("k") == "v"
        assert primary.get("k") == "v"  # read-repaired
        assert store.repairs == 1

    def test_read_repair_can_be_disabled(self):
        store, primary, replicas = self.make(1, read_repair=False)
        replicas[0].put("k", "v")
        assert store.get("k") == "v"
        assert not primary.contains("k")

    def test_explicit_repair_syncs_lagging_replica(self):
        """A replica that rejoined after missing writes catches up."""
        store, primary, replicas = self.make(1)
        primary.put("k", "v")            # replica never saw this write
        assert store.get("k") == "v"
        assert not replicas[0].contains("k")   # primary hit: no repair yet
        assert store.repair("k") == 1
        assert replicas[0].get("k") == "v"

    def test_repair_all(self):
        store, primary, replicas = self.make(2)
        primary.put("a", 1)
        replicas[0].put("b", 2)
        fixed = store.repair_all()
        assert fixed >= 2
        for member in store.members:
            assert member.get("a") == 1
            assert member.get("b") == 2

    def test_failover_value_repaired_onto_reachable_missers(self):
        store, primary, replicas = self.make(2)
        replicas[1].put("k", "only-here")
        assert store.get("k") == "only-here"
        assert primary.get("k") == "only-here"
        assert replicas[0].get("k") == "only-here"

    def test_missing_everywhere_raises(self):
        store, _primary, _replicas = self.make()
        with pytest.raises(KeyNotFoundError):
            store.get("ghost")

    def test_delete_everywhere(self):
        store, primary, replicas = self.make()
        store.put("k", "v")
        assert store.delete("k")
        assert not primary.contains("k")
        assert all(not replica.contains("k") for replica in replicas)

    def test_contains_any_member(self):
        store, _primary, replicas = self.make()
        replicas[-1].put("stray", 1)
        assert store.contains("stray")

    def test_keys_union(self):
        store, primary, replicas = self.make(1)
        primary.put("a", 1)
        replicas[0].put("b", 2)
        assert set(store.keys()) == {"a", "b"}

    def test_requires_replicas(self):
        with pytest.raises(ConfigurationError):
            ReplicatedStore(InMemoryStore(), [])

    def test_total_outage_surfaces_error(self):
        store, primary, replicas = self.make(1)
        store.put("k", "v")
        primary.close()
        replicas[0].close()
        with pytest.raises(Exception):
            store.get("k")

    def test_stats_counters_survive_concurrent_hammering(self):
        """The five public counters are bumped from hedge worker threads;
        a bare += would lose updates under contention."""
        store, _primary, _replicas = self.make()
        per_thread, threads_n = 500, 8

        def hammer():
            for _ in range(per_thread):
                store._count("repairs", "kv.replica.repairs")  # noqa: SLF001

        threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert store.repairs == per_thread * threads_n

    def test_counters_mirrored_to_obs_registry(self):
        obs = Observability()
        primary = InMemoryStore("primary")
        dead = InMemoryStore("dead")
        dead.close()
        good = InMemoryStore("good")
        store = ReplicatedStore(primary, [dead, good], obs=obs)
        store.put("k", "v")                 # dead replica -> 1 write failure
        primary.close()
        assert store.get("k") == "v"        # served by `good` -> failover
        counters = obs.registry
        assert counters.counter("kv.replica.write_failures").value == 1
        assert counters.counter("kv.replica.failover_reads").value == 1
        assert (
            counters.counter("kv.replica.write_failures").value
            == store.replica_write_failures
        )

    def test_repair_metric_mirrored(self):
        obs = Observability()
        primary = InMemoryStore("primary")
        replica = InMemoryStore("replica")
        store = ReplicatedStore(primary, [replica], obs=obs)
        primary.put("k", "v")               # replica missed this write
        assert store.repair("k") == 1
        assert obs.registry.counter("kv.replica.repairs").value == store.repairs == 1

    def test_repair_survives_key_unreadable_everywhere(self):
        store, _primary, _replicas = self.make()
        assert store.repair("ghost") == 0   # no raise, nothing counted
        assert store.repairs == 0

    def test_repair_all_survives_member_dying_mid_pass(self):
        """A member that starts failing partway through the sweep neither
        aborts it nor inflates `repairs`."""

        class DiesAfter(InMemoryStore):
            def __init__(self, name, budget):
                super().__init__(name)
                self.budget = budget

            def _spend(self):
                self.budget -= 1
                if self.budget < 0:
                    raise StoreConnectionError("crashed mid-pass")

            def get(self, key):
                self._spend()
                return super().get(key)

            def get_or_default(self, key, default=None):
                self._spend()
                return super().get_or_default(key, default)

            def put(self, key, value):
                self._spend()
                super().put(key, value)

            def keys(self):
                self._spend()
                return super().keys()

        primary = InMemoryStore("primary")
        dying = DiesAfter("dying", budget=3)
        healthy = InMemoryStore("healthy")
        store = ReplicatedStore(primary, [dying, healthy])
        for index in range(6):
            primary.put(f"key-{index}", index)   # replicas missed every write
        fixed = store.repair_all()               # must not raise
        # The healthy replica is fully synced regardless of the crash.
        for index in range(6):
            assert healthy.get(f"key-{index}") == index
        # Only writes that actually landed were counted.
        landed = sum(1 for index in range(6) if dying.contains(f"key-{index}"))
        assert store.repairs == fixed == 6 + landed

    def test_hedged_reads_skip_read_repair(self):
        """Regression: a hedged read must not repair the losing member --
        its request may still be in flight (documented on hedge_delay)."""
        primary = InMemoryStore("primary")
        replica = InMemoryStore("replica")
        replica.put("k", "v")                # the primary missed this write
        store = ReplicatedStore(primary, [replica], hedge_delay=0.0)
        assert store.get("k") == "v"
        assert store.repairs == 0
        assert not primary.contains("k")     # NOT repaired
        # The sequential path (hedging off) does repair it.
        store.hedge_delay = None
        assert store.get("k") == "v"
        assert store.repairs == 1
        assert primary.get("k") == "v"

    def test_hedged_read_surfaces_primary_outage_over_replica_miss(self):
        """The primary is authoritative: its outage is not an absent key."""
        primary = PartitionedStore(InMemoryStore("primary"), name="primary")
        primary.partition()
        store = ReplicatedStore(primary, [InMemoryStore("replica")], hedge_delay=0.0)
        with pytest.raises(StoreConnectionError):
            store.get("k")
        store.close()

    def test_hedged_reads_start_no_threads_after_the_first(self, thread_starts):
        """Hedges run on the members' workers; only the first read starts
        them (the primary misses, so every read also asks the replica)."""
        primary = InMemoryStore("primary")
        replica = InMemoryStore("replica")
        replica.put("k", "v")
        store = ReplicatedStore(primary, [replica], hedge_delay=30.0)
        assert store.get("k") == "v"
        assert len(thread_starts) == 2
        thread_starts.clear()
        for _ in range(100):
            assert store.get("k") == "v"
        assert store.hedged_reads == store.hedge_wins == 101
        assert thread_starts == []
        store.close()
        assert store.drain()


class TestPartitionedStore:
    def test_partition_is_symmetric(self):
        """Reads AND writes are refused -- unlike FlakyStore's coin flips."""
        inner = InMemoryStore()
        inner.put("k", "v")
        store = PartitionedStore(inner)
        store.partition()
        with pytest.raises(StoreUnavailableError):
            store.get("k")
        with pytest.raises(StoreUnavailableError):
            store.put("k", "v2")
        with pytest.raises(StoreUnavailableError):
            store.delete("k")
        with pytest.raises(StoreUnavailableError):
            list(store.keys())
        assert inner.get("k") == "v"  # inner store never touched
        assert store.unavailable_ops == 4

    def test_unavailable_is_a_retryable_connection_error(self):
        assert issubclass(StoreUnavailableError, StoreConnectionError)

    def test_heal_restores_service(self):
        store = PartitionedStore(InMemoryStore())
        store.partition()
        store.heal()
        store.put("k", "v")
        assert store.get("k") == "v"
        assert store.partitions == 1 and store.heals == 1

    def test_flap_schedule_is_deterministic_on_virtual_clock(self):
        clock = {"now": 0.0}

        def make():
            store = PartitionedStore(InMemoryStore(), clock=lambda: clock["now"])
            return store, store.schedule_flaps(
                seed=7, flaps=3, mean_healthy=10.0, mean_partitioned=2.0, start=0.0
            )

        clock["now"] = 0.0
        first_store, first = make()
        second_store, second = make()
        assert first == second            # seeded: identical windows
        assert len(first) == 3
        store, windows = first_store, first
        store.put("k", "v")               # healthy before the first window
        for start, end in windows:
            clock["now"] = (start + end) / 2
            assert store.is_partitioned()
            with pytest.raises(StoreUnavailableError):
                store.get("k")
            clock["now"] = end
            assert not store.is_partitioned()
            assert store.get("k") == "v"

    @pytest.mark.parametrize("seed", [7, 9])
    def test_probes_are_refused_exactly_inside_the_windows(self, seed):
        clock = {"now": 0.0}
        store = PartitionedStore(InMemoryStore(), clock=lambda: clock["now"])
        store.put("k", "v")
        windows = store.schedule_flaps(
            seed=seed, flaps=3, mean_healthy=10.0, mean_partitioned=4.0, start=0.0
        )
        refused = served = expected_refused = 0
        while clock["now"] < windows[-1][1] + 1.0:
            if any(start <= clock["now"] < end for start, end in windows):
                expected_refused += 1
            try:
                store.get("k")
                served += 1
            except StoreUnavailableError:
                refused += 1
            clock["now"] += 0.5
        assert refused == expected_refused > 0
        assert served > 0
        assert store.unavailable_ops == refused

    def test_retry_ladder_exhausts_on_reads_and_writes_alike(self):
        from repro.obs import EventLog

        obs = Observability(events=EventLog())
        part = PartitionedStore(InMemoryStore(), obs=obs)
        sleeps = []
        retry = RetryingStore(
            part, max_attempts=3, base_delay=0.02, sleep=sleeps.append, seed=7, obs=obs
        )
        retry.put("user-0", {"name": "user-0"})
        part.partition()
        with pytest.raises(StoreUnavailableError):
            retry.get("user-0")
        with pytest.raises(StoreUnavailableError):
            retry.put("user-1", {"name": "user-1"})
        assert part.unavailable_ops == 6  # three attempts each, both directions
        assert obs.registry.counter("kv.retry.exhausted").value == 2
        assert obs.registry.counter("kv.retry.retries").value == 4
        assert len(sleeps) == 4
        part.heal()
        assert retry.get("user-0") == {"name": "user-0"}
        assert not retry.contains("user-1")  # the refused write never landed

    def test_heal_truncates_active_window_only(self):
        clock = {"now": 0.0}
        store = PartitionedStore(InMemoryStore(), clock=lambda: clock["now"])
        store._windows = [(1.0, 5.0), (10.0, 12.0)]  # noqa: SLF001 - exact windows
        clock["now"] = 2.0
        assert store.is_partitioned()
        store.heal()                      # operator fixes the link early
        assert not store.is_partitioned()
        clock["now"] = 11.0               # future window still applies
        assert store.is_partitioned()
        store.clear_schedule()
        assert not store.is_partitioned()

    def test_close_passes_through_unguarded(self):
        inner = InMemoryStore()
        store = PartitionedStore(inner)
        store.partition()
        store.close()                     # no raise: local resources release
        with pytest.raises(DataStoreError):
            inner.put("k", "v")           # really closed

    def test_obs_counters_and_events(self):
        from repro.obs import EventLog

        obs = Observability(events=EventLog())
        store = PartitionedStore(InMemoryStore(), name="p0", obs=obs)
        store.partition()
        with pytest.raises(StoreUnavailableError):
            store.get("k")
        store.heal()
        counters = obs.registry
        assert counters.counter("kv.chaos.partitions").value == 1
        assert counters.counter("kv.chaos.heals").value == 1
        assert counters.counter("kv.chaos.unavailable").value == 1
        kinds = [record["kind"] for record in obs.events.tail(10)]
        assert kinds == ["partition", "heal"]


class TestSingleFlight:
    def test_stampede_coalesced_to_one_fetch(self):
        from repro.core import EnhancedDataStoreClient

        fetches = []
        gate = threading.Event()

        class SlowStore(InMemoryStore):
            def get_with_version(self, key):
                fetches.append(key)
                gate.wait(timeout=5)
                return super().get_with_version(key)

        origin = SlowStore()
        origin.put("hot", "value")
        client = EnhancedDataStoreClient(origin, coalesce_misses=True)

        results = []
        threads = [
            threading.Thread(target=lambda: results.append(client.get("hot")))
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.05)  # let everyone reach the miss path
        gate.set()
        for thread in threads:
            thread.join(timeout=5)

        assert results == ["value"] * 8
        assert len(fetches) == 1                      # exactly one origin fetch
        assert client.counters.coalesced_misses == 7  # the rest reused it

    def test_coalesced_negative_result(self):
        from repro.core import EnhancedDataStoreClient

        client = EnhancedDataStoreClient(
            InMemoryStore(), coalesce_misses=True, negative_ttl=60
        )
        with pytest.raises(KeyNotFoundError):
            client.get("ghost")
        with pytest.raises(KeyNotFoundError):
            client.get("ghost")
        assert client.counters.store_reads == 1

    def test_inflight_registry_does_not_leak(self):
        from repro.core import EnhancedDataStoreClient

        origin = InMemoryStore()
        origin.put("k", 1)
        client = EnhancedDataStoreClient(origin, coalesce_misses=True)
        client.get("k")
        assert client._inflight == {}  # noqa: SLF001 - leak check
