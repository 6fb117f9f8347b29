"""Fault-tolerance plane integration tests (see ``docs/resilience.md``).

The chaos soak composes the full recommended stack --
``RetryingStore(CircuitBreakerStore(FlakyStore(backend)))`` behind a
write-through cached client with serve-stale degradation -- and drives it
through failure bursts, breaker recovery, and deadline pressure with an
injectable clock: no test here performs an unbounded real sleep (the hedge
tests wait a few milliseconds on a queue by design; everything else is
zero-sleep).
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.caching import InProcessCache
from repro.core import EnhancedDataStoreClient
from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    DataStoreError,
    DeadlineExceededError,
    KeyNotFoundError,
    StoreConnectionError,
)
from repro.kv import (
    CircuitBreakerStore,
    CircuitState,
    Deadline,
    FlakyStore,
    InMemoryStore,
    ReadOnlyStore,
    ReplicatedStore,
    RetryingStore,
    deadline_scope,
)
from repro.net.client import CacheClient, ClusterAwareClient, SubscriberClient
from repro.obs import Observability
from repro.obs.events import EventLog
from repro.udsm import UniversalDataStoreManager


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def expire_cached_entry(client: EnhancedDataStoreClient, key: str) -> None:
    """Flip a cached entry to just-past-expiry without sleeping."""
    entry = client.dscl.cache_lookup(key).entry
    assert entry is not None
    entry.expires_at = time.time() - 0.001


# ----------------------------------------------------------------------
# Hedged reads
# ----------------------------------------------------------------------
class _GatedStore(InMemoryStore):
    """get() blocks until released -- a reliably slow primary."""

    def __init__(self) -> None:
        super().__init__()
        self.gate = threading.Event()

    def get(self, key):
        self.gate.wait(timeout=5.0)
        return super().get(key)


class TestHedgedReads:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ReplicatedStore(InMemoryStore(), [InMemoryStore()], hedge_delay=-1)

    def test_hedge_wins_when_primary_is_slow(self):
        obs = Observability(events=EventLog())
        primary = _GatedStore()
        replica = InMemoryStore()
        primary.put("k", "v")  # bypass the gate: put is not blocked
        replica.put("k", "v")
        group = ReplicatedStore(
            primary, [replica], hedge_delay=0.005, obs=obs, owns_members=True
        )
        try:
            with deadline_scope(5.0):
                assert group.get("k") == "v"
            assert group.hedged_reads == 1
            assert group.hedge_wins == 1
            counters = obs.registry.snapshot()["counters"]
            assert counters["kv.hedge.launched"] == 1
            assert counters["kv.hedge.wins"] == 1
            (record,) = obs.events.tail(kind="hedge")
            assert record["member"] == replica.name
        finally:
            primary.gate.set()

    def test_fast_primary_needs_no_hedge(self):
        primary, replica = InMemoryStore(), InMemoryStore()
        primary.put("k", "primary-value")
        replica.put("k", "replica-value")
        group = ReplicatedStore(primary, [replica], hedge_delay=30.0)
        assert group.get("k") == "primary-value"
        assert group.hedged_reads == 0

    def test_failed_primary_hedges_immediately(self):
        primary = FlakyStore(InMemoryStore(), failure_rate=1.0)
        replica = InMemoryStore()
        replica.put("k", "v")
        group = ReplicatedStore(primary, [replica], hedge_delay=30.0)
        start = time.monotonic()
        assert group.get("k") == "v"
        # the in-flight failure triggered the next launch, not the 30 s timer
        assert time.monotonic() - start < 5.0
        assert group.hedge_wins == 1

    def test_all_members_missing_key(self):
        group = ReplicatedStore(
            InMemoryStore(), [InMemoryStore()], hedge_delay=0.001
        )
        with pytest.raises(KeyNotFoundError):
            group.get("absent")

    def test_all_members_failing(self):
        group = ReplicatedStore(
            FlakyStore(InMemoryStore(), failure_rate=1.0),
            [FlakyStore(InMemoryStore(), failure_rate=1.0)],
            hedge_delay=0.001,
        )
        with pytest.raises(StoreConnectionError):
            group.get("k")

    def test_expired_deadline_aborts_hedged_read(self):
        clock = FakeClock()
        obs = Observability()
        primary = _GatedStore()
        primary.put("k", "v")
        group = ReplicatedStore(
            primary, [InMemoryStore()], hedge_delay=30.0, obs=obs
        )
        try:
            expired = Deadline(0.0, clock=clock)
            clock.advance(1.0)
            with deadline_scope(expired):
                with pytest.raises(DeadlineExceededError):
                    group.get("k")
            assert obs.registry.snapshot()["counters"]["kv.deadline.expired"] == 1
        finally:
            primary.gate.set()


# ----------------------------------------------------------------------
# Serve-stale through the enhanced client
# ----------------------------------------------------------------------
class TestClientServeStale:
    def make_client(self, clock, obs=None, **options):
        backend = InMemoryStore()
        flaky = FlakyStore(backend, failure_rate=0.0)
        guarded = CircuitBreakerStore(
            flaky, failure_threshold=3, recovery_timeout=5.0, clock=clock, obs=obs
        )
        resilient = RetryingStore(
            guarded, max_attempts=3, sleep=clock.advance, seed=11, obs=obs
        )
        pending = []
        options.setdefault("default_ttl", 60.0)
        options.setdefault("serve_stale", True)
        options.setdefault("max_stale", 3600.0)
        client = EnhancedDataStoreClient(
            resilient,
            cache=InProcessCache(),
            stale_revalidator=pending.append,
            obs=obs,
            **options,
        )
        return backend, flaky, guarded, client, pending

    def test_degraded_read_serves_stale_instead_of_raising(self):
        """Acceptance: open-circuit read through the cache serves stale."""
        clock = FakeClock()
        obs = Observability(events=EventLog())
        _backend, flaky, guarded, client, pending = self.make_client(clock, obs)
        client.put("user", {"name": "ada"})
        assert client.get("user") == {"name": "ada"}  # fresh hit

        expire_cached_entry(client, "user")
        flaky.fail_next(100)  # hard outage: retries exhaust, breaker opens
        assert client.get("user") == {"name": "ada"}  # flagged, not raised
        assert client.counters.stale_serves == 1
        assert guarded.breaker.state is CircuitState.OPEN
        assert obs.registry.snapshot()["counters"]["cache.stale_served"] == 1
        (record,) = obs.events.tail(kind="stale_served")
        assert record["key"] == "user"
        assert record["error"] == "StoreConnectionError"  # retry ladder exhausted

        # While open, sheds serve stale instantly without backend contact.
        expire_cached_entry(client, "user")
        before = flaky.injected_failures + flaky.successes
        assert client.get("user") == {"name": "ada"}
        assert flaky.injected_failures + flaky.successes == before
        (shed,) = obs.events.tail(1, kind="stale_served")
        assert shed["error"] == "CircuitOpenError"

    def test_deadline_exhausted_read_serves_stale(self):
        """Acceptance: a deadline-exhausted read degrades to stale."""
        clock = FakeClock()
        obs = Observability(events=EventLog())
        _backend, flaky, _guarded, client, _pending = self.make_client(clock, obs)
        client.put("user", {"name": "ada"})
        expire_cached_entry(client, "user")
        flaky.fail_next(100)
        with deadline_scope(0.05, clock=clock):
            assert client.get("user") == {"name": "ada"}
        assert client.counters.stale_serves == 1
        (record,) = obs.events.tail(kind="stale_served")
        assert record["error"] == "DeadlineExceededError"

    def test_background_revalidation_catches_up_after_recovery(self):
        clock = FakeClock()
        backend, flaky, guarded, client, pending = self.make_client(clock)
        client.put("user", {"name": "ada"})
        backend.put("user", {"name": "grace"})  # origin changed upstream
        expire_cached_entry(client, "user")
        flaky.fail_next(100)
        assert client.get("user") == {"name": "ada"}  # stale
        assert len(pending) == 1

        flaky.fail_next(0)  # outage over
        clock.advance(5.0)  # breaker recovery due; revalidation is the probe
        pending.pop()()
        assert guarded.breaker.state is CircuitState.CLOSED
        assert client.get("user") == {"name": "grace"}  # fresh again
        assert client.counters.stale_serves == 1

    def test_disabled_serve_stale_raises(self):
        clock = FakeClock()
        _backend, flaky, _guarded, client, _pending = self.make_client(
            clock, serve_stale=False
        )
        client.put("user", {"name": "ada"})
        expire_cached_entry(client, "user")
        flaky.fail_next(100)
        with pytest.raises(StoreConnectionError):
            client.get("user")

    def test_never_serves_stale_negatives(self):
        clock = FakeClock()
        _backend, flaky, _guarded, client, _pending = self.make_client(
            clock, negative_ttl=60.0
        )
        with pytest.raises(KeyNotFoundError):
            client.get("ghost")  # caches a negative entry
        expire_cached_entry(client, "ghost")
        flaky.fail_next(100)
        with pytest.raises(StoreConnectionError):
            client.get("ghost")
        assert client.counters.stale_serves == 0

    def test_max_stale_is_validated(self):
        with pytest.raises(ConfigurationError):
            EnhancedDataStoreClient(InMemoryStore(), max_stale=-1)
        client = EnhancedDataStoreClient(InMemoryStore(), max_stale=0.0)
        with pytest.raises(ConfigurationError):
            client.max_stale = -1

    @pytest.mark.parametrize(
        "read, revalidate", [("get", True), ("get", False), ("get_many", False)]
    )
    def test_an_origin_delete_is_never_served_stale(self, read, revalidate):
        """"Absent" is a semantic answer: it propagates, and the expired copy
        goes with the key, so a later outage cannot serve it."""
        clock = FakeClock()
        backend, flaky, _guarded, client, pending = self.make_client(
            clock, revalidate_expired=revalidate
        )
        with pytest.raises(KeyNotFoundError):
            client.get("absent")
        client.put("user", {"name": "ada"})
        backend.delete("user")  # deleted behind the cache
        expire_cached_entry(client, "user")
        if read == "get":
            with pytest.raises(KeyNotFoundError):
                client.get("user")
        else:
            assert client.get_many(["user"]) == {}
        flaky.fail_next(100)
        with pytest.raises(StoreConnectionError):
            client.get("user")
        assert client.counters.stale_serves == 0
        assert pending == []

    def test_delete_forgets_the_entry(self):
        clock = FakeClock()
        _backend, flaky, _guarded, client, _pending = self.make_client(clock)
        client.put("user", {"name": "ada"})
        client.delete("user")
        flaky.fail_next(100)
        with pytest.raises(StoreConnectionError):
            client.get("user")
        assert client.counters.stale_serves == 0

    def test_in_flight_revalidation_is_deduplicated(self):
        clock = FakeClock()
        _backend, flaky, _guarded, client, pending = self.make_client(clock)
        client.put("user", {"name": "ada"})
        expire_cached_entry(client, "user")
        flaky.fail_next(100)
        assert client.get("user") == {"name": "ada"}
        assert client.get("user") == {"name": "ada"}
        assert client.get_many(["user"]) == {"user": {"name": "ada"}}
        assert client.counters.stale_serves == 3
        assert len(pending) == 1
        flaky.fail_next(0)
        clock.advance(5.0)
        pending.pop()()  # done: the next stale serve may queue one again
        expire_cached_entry(client, "user")
        flaky.fail_next(100)
        assert client.get("user") == {"name": "ada"}
        assert len(pending) == 1

    def test_open_circuit_is_degradable(self):
        flaky = FlakyStore(InMemoryStore(), failure_rate=0.0)
        guarded = CircuitBreakerStore(flaky, failure_threshold=1)
        client = EnhancedDataStoreClient(
            guarded, default_ttl=60.0, serve_stale=True,
            stale_revalidator=lambda thunk: None,
        )
        for key in ("a", "b"):
            client.put(key, key.upper())
            expire_cached_entry(client, key)
        flaky.fail_next(1)
        assert client.get("a") == "A"  # the failure that opened the circuit
        assert guarded.breaker.state is CircuitState.OPEN
        assert client.get("a") == "A"  # shed fast, still served
        assert client.get_many(["a", "b"]) == {"a": "A", "b": "B"}  # one shed batch
        assert client.counters.stale_serves == 4

    def test_get_many_degrades_to_expired_entries(self):
        clock = FakeClock()
        obs = Observability(events=EventLog())
        _backend, flaky, _guarded, client, pending = self.make_client(clock, obs)
        for key in ("fresh", "old-1", "old-2"):
            client.put(key, {"key": key})
        expire_cached_entry(client, "old-1")
        expire_cached_entry(client, "old-2")
        flaky.fail_next(100)
        assert client.get_many(["fresh", "old-1", "old-2"]) == {
            "fresh": {"key": "fresh"},  # a fresh hit never reaches the origin
            "old-1": {"key": "old-1"},
            "old-2": {"key": "old-2"},
        }
        assert client.counters.stale_serves == 2
        assert obs.registry.snapshot()["counters"]["cache.stale_served"] == 2
        records = obs.events.tail(kind="stale_served")
        assert [record["key"] for record in records] == ["old-1", "old-2"]
        assert len(pending) == 2

    def test_get_many_reraises_when_a_missed_key_has_no_entry(self):
        clock = FakeClock()
        _backend, flaky, _guarded, client, pending = self.make_client(clock)
        client.put("user", {"name": "ada"})
        expire_cached_entry(client, "user")
        flaky.fail_next(100)
        with pytest.raises(StoreConnectionError):
            client.get_many(["user", "never-seen"])
        assert client.counters.stale_serves == 0  # all or nothing
        assert pending == []
        # The key with no entry is what failed the batch: alone, "user" degrades.
        assert client.get_many(["user"]) == {"user": {"name": "ada"}}

    def test_a_value_first_seen_through_get_many_is_served_stale(self):
        clock = FakeClock()
        backend, flaky, _guarded, client, _pending = self.make_client(clock)
        backend.put("k", "seen")
        assert client.get_many(["k", "absent"]) == {"k": "seen"}
        expire_cached_entry(client, "k")
        flaky.fail_next(100)
        assert client.get("k") == "seen"
        assert client.get_many(["k"]) == {"k": "seen"}
        with pytest.raises(CircuitOpenError):  # the shed error, re-raised
            client.get_many(["never-seen"])
        assert client.counters.stale_serves == 2

    def test_max_stale_bounds_degradation(self):
        clock = FakeClock()
        _backend, flaky, _guarded, client, _pending = self.make_client(
            clock, max_stale=0.5
        )
        client.put("user", {"name": "ada"})
        entry = client.dscl.cache_lookup("user").entry
        entry.expires_at = time.time() - 10.0  # ten seconds stale > 0.5 bound
        flaky.fail_next(100)
        with pytest.raises(StoreConnectionError):
            client.get("user")
        assert client.counters.stale_serves == 0


class TestServeStaleOverEveryStore:
    """The client's serve-stale path over every backend and decorator of
    the KV contract matrix (``any_store``): the version tokens each store
    hands out must drive revalidation, and an outage below any of them
    must degrade to the expired entry.  The origin is seeded behind the
    client, so the read-only store takes part too."""

    @staticmethod
    def origin(store):
        """Where a test writes behind the client (a read-only store's inner)."""
        return store._inner if isinstance(store, ReadOnlyStore) else store

    def make_client(self, store, **options):
        flaky = FlakyStore(store, failure_rate=0.0)
        pending = []
        client = EnhancedDataStoreClient(
            flaky,
            cache=InProcessCache(),
            default_ttl=60.0,
            serve_stale=True,
            max_stale=options.pop("max_stale", 3600.0),
            stale_revalidator=pending.append,
            **options,
        )
        return flaky, client, pending

    def test_an_expired_entry_is_served_stale_in_an_outage(self, any_store):
        flaky, client, pending = self.make_client(any_store)
        self.origin(any_store).put("user", {"name": "ada"})
        assert client.get("user") == {"name": "ada"}
        expire_cached_entry(client, "user")
        flaky.fail_next(100)
        assert client.get("user") == {"name": "ada"}
        assert client.counters.stale_serves == 1
        assert len(pending) == 1

    def test_an_unchanged_origin_revalidates_as_not_modified(self, any_store):
        _flaky, client, _pending = self.make_client(any_store)
        self.origin(any_store).put("user", {"name": "ada"})
        assert client.get("user") == {"name": "ada"}
        expire_cached_entry(client, "user")
        assert client.get("user") == {"name": "ada"}
        assert client.counters.revalidations == 1
        assert client.counters.revalidated_not_modified == 1
        assert client.counters.stale_serves == 0

    def test_revalidation_picks_up_an_origin_change(self, any_store):
        _flaky, client, _pending = self.make_client(any_store)
        self.origin(any_store).put("user", {"name": "ada"})
        assert client.get("user") == {"name": "ada"}
        self.origin(any_store).put("user", {"name": "grace"})
        expire_cached_entry(client, "user")
        assert client.get("user") == {"name": "grace"}
        assert client.counters.revalidated_modified == 1

    def test_get_many_is_served_stale_in_an_outage(self, any_store):
        flaky, client, pending = self.make_client(any_store)
        self.origin(any_store).put_many({"a": "A", "b": "B"})
        assert client.get_many(["a", "b"]) == {"a": "A", "b": "B"}
        expire_cached_entry(client, "a")
        expire_cached_entry(client, "b")
        flaky.fail_next(100)
        assert client.get_many(["a", "b"]) == {"a": "A", "b": "B"}
        assert client.counters.stale_serves == 2
        assert len(pending) == 2

    def test_get_many_reraises_when_a_missed_key_has_no_entry(self, any_store):
        flaky, client, pending = self.make_client(any_store)
        self.origin(any_store).put("a", "A")
        assert client.get("a") == "A"
        expire_cached_entry(client, "a")
        flaky.fail_next(100)
        with pytest.raises(StoreConnectionError):
            client.get_many(["a", "never-seen"])
        assert client.counters.stale_serves == 0
        assert pending == []

    def test_past_max_stale_the_origin_error_wins(self, any_store):
        flaky, client, _pending = self.make_client(any_store, max_stale=0.5)
        self.origin(any_store).put("user", {"name": "ada"})
        assert client.get("user") == {"name": "ada"}
        client.dscl.cache_lookup("user").entry.expires_at = time.time() - 10.0
        flaky.fail_next(100)
        with pytest.raises(StoreConnectionError):
            client.get("user")
        assert client.counters.stale_serves == 0

    def test_an_origin_delete_is_never_served_stale(self, any_store):
        flaky, client, pending = self.make_client(any_store)
        self.origin(any_store).put("user", {"name": "ada"})
        assert client.get("user") == {"name": "ada"}
        self.origin(any_store).delete("user")
        expire_cached_entry(client, "user")
        with pytest.raises(KeyNotFoundError):
            client.get("user")
        flaky.fail_next(100)
        with pytest.raises(StoreConnectionError):
            client.get("user")
        assert client.counters.stale_serves == 0
        assert pending == []


# ----------------------------------------------------------------------
# The chaos soak (ISSUE acceptance scenario)
# ----------------------------------------------------------------------
class TestChaosSoak:
    def test_burst_open_stale_probe_close_within_deadline(self):
        """Full lifecycle: burst -> breaker opens -> stale served -> probe
        closes after recovery -> fresh reads resume.  Injected clock, zero
        real sleeps, every operation bounded by its deadline budget."""
        clock = FakeClock()
        obs = Observability(events=EventLog())
        backend = InMemoryStore()
        flaky = FlakyStore(backend, failure_rate=0.0, seed=5)
        guarded = CircuitBreakerStore(
            flaky, failure_threshold=3, recovery_timeout=10.0, clock=clock, obs=obs
        )
        resilient = RetryingStore(
            guarded, max_attempts=2, base_delay=0.01, sleep=clock.advance, seed=5, obs=obs
        )
        pending = []
        client = EnhancedDataStoreClient(
            resilient,
            cache=InProcessCache(),
            default_ttl=60.0,
            serve_stale=True,
            max_stale=3600.0,
            stale_revalidator=pending.append,
            obs=obs,
        )

        # Healthy phase: writes land, reads hit the cache.
        for index in range(5):
            client.put(f"key-{index}", {"n": index})
        for index in range(5):
            assert client.get(f"key-{index}") == {"n": index}
        assert client.counters.cache_hits == 5

        # Outage: every cached entry expires, backend bursts failures.
        for index in range(5):
            expire_cached_entry(client, f"key-{index}")
        flaky.fail_next(1000)
        for index in range(5):
            with deadline_scope(1.0, clock=clock) as budget:
                assert client.get(f"key-{index}") == {"n": index}
                assert not budget.expired  # no op exceeded its deadline
        assert client.counters.stale_serves == 5
        assert guarded.breaker.state is CircuitState.OPEN
        assert guarded.breaker.opened == 1

        # Recovery: backend heals, the recovery timeout elapses, and the
        # queued revalidations act as probes that close the circuit.
        flaky.fail_next(0)
        clock.advance(10.0)
        while pending:
            pending.pop(0)()
        assert guarded.breaker.state is CircuitState.CLOSED

        # Back to normal: fresh reads, no stale serving.
        stale_before = client.counters.stale_serves
        for index in range(5):
            assert client.get(f"key-{index}") == {"n": index}
        assert client.counters.stale_serves == stale_before

        counters = obs.registry.snapshot()["counters"]
        assert counters["kv.circuit.opened"] == 1
        assert counters["kv.circuit.closed"] == 1
        assert counters["cache.stale_served"] == 5
        assert counters["kv.retry.retries"] >= 1
        kinds = {record["kind"] for record in obs.events.tail()}
        assert {"circuit_open", "circuit_closed", "stale_served"} <= kinds

    @pytest.mark.parametrize("seed", [7, 12345])
    def test_scoreboard_is_seed_independent(self, seed):
        """The seed moves backoff jitter, never what each layer absorbs."""
        scoreboard = self.outage_scoreboard(seed)
        assert scoreboard == self.outage_scoreboard(5)
        assert scoreboard["kv.circuit.opened"] == scoreboard["kv.circuit.closed"] == 1
        assert scoreboard["cache.stale_served"] == 4
        assert scoreboard["absorbed"] == [
            "StoreConnectionError", "CircuitOpenError",
            "CircuitOpenError", "CircuitOpenError",
        ]

    @staticmethod
    def outage_scoreboard(seed):
        """Four stale reads through a full outage and its recovery; returns
        the fault-tolerance counters and the error each stale serve absorbed."""
        clock = FakeClock()
        obs = Observability(events=EventLog())
        flaky = FlakyStore(InMemoryStore(), failure_rate=0.0, seed=seed)
        guarded = CircuitBreakerStore(
            flaky, failure_threshold=3, recovery_timeout=10.0, clock=clock, obs=obs
        )
        resilient = RetryingStore(
            guarded, max_attempts=3, base_delay=0.01, sleep=clock.advance,
            seed=seed, obs=obs,
        )
        pending = []
        client = EnhancedDataStoreClient(
            resilient,
            cache=InProcessCache(),
            default_ttl=60.0,
            serve_stale=True,
            max_stale=3600.0,
            stale_revalidator=pending.append,
            obs=obs,
        )
        keys = [f"user-{index}" for index in range(4)]
        for key in keys:
            client.put(key, {"name": key})
            expire_cached_entry(client, key)
        flaky.fail_next(1000)
        for key in keys:
            assert client.get(key) == {"name": key}
        flaky.fail_next(0)
        clock.advance(10.0)
        while pending:
            pending.pop(0)()
        client.close()
        counters = obs.registry.snapshot()["counters"]
        scoreboard = {
            name: counters.get(name, 0)
            for name in (
                "kv.retry.retries", "kv.circuit.opened", "kv.circuit.rejected",
                "kv.circuit.closed", "cache.stale_served",
            )
        }
        scoreboard["absorbed"] = [
            record["error"] for record in obs.events.tail(kind="stale_served")
        ]
        return scoreboard


# ----------------------------------------------------------------------
# UDSM health routing
# ----------------------------------------------------------------------
class TestManagerHealth:
    def test_protect_and_route_around_open_circuit(self):
        clock = FakeClock()
        with UniversalDataStoreManager() as udsm:
            flaky = FlakyStore(InMemoryStore(), failure_rate=0.0)
            udsm.register("primary", flaky)
            udsm.register("backup", InMemoryStore(name="backup"))
            udsm.protect("primary", failure_threshold=1, recovery_timeout=5.0, clock=clock)

            udsm.store("primary").put("k", "v")
            udsm.store("backup").put("k", "v")
            assert udsm.healthy_stores() == ["backup", "primary"]
            assert udsm.route("primary", "backup").name == "primary"

            flaky.fail_next(1)
            with pytest.raises(StoreConnectionError):
                udsm.store("primary").get("k")
            assert udsm.healthy_stores() == ["backup"]
            assert udsm.route("primary", "backup").name == "backup"
            assert udsm.health.snapshot()["primary"] is CircuitState.OPEN

            # Recovery makes the store routable again (half-open admits probes).
            clock.advance(5.0)
            assert udsm.route("primary", "backup").name == "primary"
            assert udsm.store("primary").get("k") == "v"
            assert udsm.health.snapshot()["primary"] is CircuitState.CLOSED

    def test_route_raises_when_everything_is_open(self):
        clock = FakeClock()
        with UniversalDataStoreManager() as udsm:
            flaky = FlakyStore(InMemoryStore(), failure_rate=0.0)
            udsm.register("only", flaky)
            udsm.protect("only", failure_threshold=1, recovery_timeout=60.0, clock=clock)
            flaky.fail_next(1)
            with pytest.raises(StoreConnectionError):
                udsm.store("only").get("k")
            with pytest.raises(DataStoreError, match="unhealthy"):
                udsm.route("only")

    def test_route_with_no_stores(self):
        with UniversalDataStoreManager() as udsm:
            with pytest.raises(DataStoreError):
                udsm.route()

    def test_unregister_untracks_health(self):
        with UniversalDataStoreManager() as udsm:
            udsm.register("s", InMemoryStore())
            udsm.protect("s", failure_threshold=1)
            udsm.unregister("s")
            assert udsm.health.snapshot() == {}


# ----------------------------------------------------------------------
# Deadline-aware network client
# ----------------------------------------------------------------------
class TestNetClientDeadline:
    def test_expired_deadline_fails_fast(self, cache_client):
        clock = FakeClock()
        expired = Deadline(0.0, clock=clock)
        clock.advance(1.0)
        with deadline_scope(expired):
            with pytest.raises(DeadlineExceededError):
                cache_client.get(b"k")

    def test_generous_deadline_passes_through(self, cache_client):
        with deadline_scope(30.0):
            cache_client.set(b"k", b"v")
            assert cache_client.get(b"k") == b"v"

    @pytest.mark.parametrize(
        "follow_up",
        [
            lambda client: client.get(b"k"),
            lambda client: client.pipeline().get(b"k").execute()[0],
        ],
        ids=["command", "pipeline"],
    )
    def test_socket_timeout_restored_after_deadline_scope(self, cache_client, follow_up):
        with deadline_scope(5.0):
            cache_client.set(b"k", b"v")
        assert follow_up(cache_client) == b"v"  # plain call still works
        assert cache_client._sock.gettimeout() == 30.0  # operation_timeout

    # A listener that accepts (the kernel completes the handshake from its
    # backlog) and never answers: only a deadline ends a wait on it.
    @pytest.fixture()
    def silent_address(self):
        listener = socket.create_server(("127.0.0.1", 0), backlog=8)
        yield listener.getsockname()[:2]
        listener.close()

    @pytest.mark.parametrize(
        "connect, call",
        [
            (CacheClient, lambda client: client.set(b"k", b"v")),
            (CacheClient, lambda client: client.pipeline().set(b"k", b"v").execute()),
            (ClusterAwareClient, lambda client: client.ping()),
            (SubscriberClient, lambda client: client.subscribe(b"ch", print)),
        ],
        ids=["command", "pipeline", "cluster-connect", "subscribe"],
    )
    def test_silent_server_fails_typed_within_the_budget(
        self, silent_address, connect, call
    ):
        """Each would wait out its own timeout (3 s, or the subscription's
        10 s) without the deadline."""
        if connect is SubscriberClient:
            client = connect(*silent_address)
        else:
            client = connect(*silent_address, operation_timeout=3.0)
        began = time.monotonic()
        with deadline_scope(0.2):
            with pytest.raises(DeadlineExceededError):
                call(client)
        assert time.monotonic() - began < 1.0
        client.close()

    @pytest.mark.parametrize(
        "connect, call",
        [
            (CacheClient, lambda client: client.pipeline().set(b"k", b"v").execute()),
            (ClusterAwareClient, lambda client: client.ping()),
        ],
        ids=["pipeline", "cluster-connect"],
    )
    def test_spent_deadline_writes_nothing(self, silent_address, connect, call):
        client = connect(*silent_address, operation_timeout=3.0)
        clock = FakeClock()
        expired = Deadline(0.0, clock=clock)
        clock.advance(1.0)
        with deadline_scope(expired):
            with pytest.raises(DeadlineExceededError):
                call(client)
        assert client._sock is None  # never connected, so not a byte sent
        client.close()

    def test_observed_pipeline_is_one_roundtrip(self, cache_server):
        obs = Observability()
        client = CacheClient(cache_server.host, cache_server.port, obs=obs)
        assert client.pipeline().set(b"p", b"1").get(b"p").execute()[1] == b"1"
        assert obs.registry.histogram("net.roundtrip.seconds").count == 1
        client.delete(b"p")
        client.close()
