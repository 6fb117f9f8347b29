"""Circuit breaker, deadline budget, and chaos-store unit tests.

Everything here runs with injected clocks and recorded sleeps: the full
breaker lifecycle (closed -> open -> half-open -> closed) is driven without
a single real sleep.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    DataStoreError,
    DeadlineExceededError,
    KeyNotFoundError,
    StoreConnectionError,
)
from repro.kv import (
    CircuitBreaker,
    CircuitBreakerStore,
    CircuitState,
    Deadline,
    FlakyStore,
    InMemoryStore,
    RetryingStore,
    current_deadline,
    deadline_scope,
)
from repro.obs import Observability
from repro.obs.events import EventLog


class FakeClock:
    """Manually advanced monotonic clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# CircuitBreaker state machine
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_configuration_validation(self):
        for bad in (
            {"failure_threshold": 0},
            {"failure_rate_threshold": 0.0},
            {"failure_rate_threshold": 1.5},
            {"window": 0},
            {"min_calls": 0},
            {"recovery_timeout": -1},
            {"probe_successes": 0},
            {"max_probes": 0},
        ):
            with pytest.raises(ConfigurationError):
                CircuitBreaker(**bad)

    def test_stays_closed_below_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3)
        for _ in range(2):
            breaker.acquire()
            breaker.record_failure()
        assert breaker.state is CircuitState.CLOSED

    def test_success_resets_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.acquire()
        breaker.record_failure()
        breaker.acquire()
        breaker.record_success()
        breaker.acquire()
        breaker.record_failure()
        assert breaker.state is CircuitState.CLOSED

    def test_consecutive_failures_open_the_circuit(self):
        breaker = CircuitBreaker(failure_threshold=2)
        for _ in range(2):
            breaker.acquire()
            breaker.record_failure()
        assert breaker.state is CircuitState.OPEN
        assert breaker.opened == 1

    def test_open_circuit_sheds_with_retry_after(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_timeout=10.0, clock=clock
        )
        breaker.acquire()
        breaker.record_failure()
        clock.advance(4.0)
        with pytest.raises(CircuitOpenError) as info:
            breaker.acquire()
        assert info.value.retry_after == pytest.approx(6.0)
        assert breaker.rejected == 1

    def test_recovery_timeout_half_opens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, recovery_timeout=5.0, clock=clock)
        breaker.acquire()
        breaker.record_failure()
        clock.advance(4.999)
        assert breaker.state is CircuitState.OPEN
        clock.advance(0.001)
        assert breaker.state is CircuitState.HALF_OPEN

    def test_successful_probe_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, recovery_timeout=5.0, clock=clock)
        breaker.acquire()
        breaker.record_failure()
        clock.advance(5.0)
        breaker.acquire()  # the probe slot
        breaker.record_success()
        assert breaker.state is CircuitState.CLOSED
        assert breaker.closed == 1

    def test_failed_probe_snaps_back_open(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, recovery_timeout=5.0, clock=clock)
        breaker.acquire()
        breaker.record_failure()
        clock.advance(5.0)
        breaker.acquire()
        breaker.record_failure()
        assert breaker.state is CircuitState.OPEN
        assert breaker.opened == 2
        # the recovery clock restarted
        clock.advance(4.0)
        with pytest.raises(CircuitOpenError):
            breaker.acquire()

    def test_probe_concurrency_is_bounded(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_timeout=1.0, max_probes=1, clock=clock
        )
        breaker.acquire()
        breaker.record_failure()
        clock.advance(1.0)
        breaker.acquire()  # probe in flight
        with pytest.raises(CircuitOpenError):
            breaker.acquire()  # second probe shed

    def test_multiple_probe_successes_required(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1,
            recovery_timeout=1.0,
            probe_successes=2,
            max_probes=2,
            clock=clock,
        )
        breaker.acquire()
        breaker.record_failure()
        clock.advance(1.0)
        breaker.acquire()
        breaker.record_success()
        assert breaker.state is CircuitState.HALF_OPEN
        breaker.acquire()
        breaker.record_success()
        assert breaker.state is CircuitState.CLOSED

    def test_failure_rate_trip(self):
        breaker = CircuitBreaker(
            failure_threshold=100,  # consecutive trip out of the way
            failure_rate_threshold=0.5,
            window=10,
            min_calls=10,
        )
        # Alternate success/failure: rate sits at 0.5 once 10 calls recorded.
        for index in range(10):
            breaker.acquire()
            if index % 2:
                breaker.record_failure()
            else:
                breaker.record_success()
        assert breaker.state is CircuitState.OPEN

    def test_rate_needs_min_calls(self):
        breaker = CircuitBreaker(
            failure_threshold=100,
            failure_rate_threshold=0.5,
            window=10,
            min_calls=10,
        )
        for _ in range(9):
            breaker.acquire()
            breaker.record_failure()  # 9 consecutive, rate 1.0, but 9 < 10
        assert breaker.state is CircuitState.CLOSED
        assert breaker.failure_rate() == 1.0

    def test_full_lifecycle_is_observable_without_sleeping(self):
        """Acceptance: the breaker lifecycle shows up as metrics + events."""
        clock = FakeClock()
        obs = Observability(events=EventLog())
        breaker = CircuitBreaker(
            failure_threshold=2,
            recovery_timeout=5.0,
            clock=clock,
            name="acceptance",
            obs=obs,
        )
        gauge = obs.registry.gauge("kv.circuit.acceptance.state")
        assert gauge.value == 0  # closed

        for _ in range(2):
            breaker.acquire()
            breaker.record_failure(StoreConnectionError("injected"))
        assert gauge.value == 2  # open
        with pytest.raises(CircuitOpenError):
            breaker.acquire()

        clock.advance(5.0)
        breaker.acquire()  # forces open -> half-open, takes the probe slot
        assert gauge.value == 1  # half-open
        breaker.record_success()
        assert gauge.value == 0  # closed again

        snapshot = obs.registry.snapshot()["counters"]
        assert snapshot["kv.circuit.opened"] == 1
        assert snapshot["kv.circuit.half_open"] == 1
        assert snapshot["kv.circuit.closed"] == 1
        assert snapshot["kv.circuit.rejected"] == 1
        kinds = [record["kind"] for record in obs.events.tail()]
        assert kinds == ["circuit_open", "circuit_half_open", "circuit_closed"]


# ----------------------------------------------------------------------
# CircuitBreakerStore
# ----------------------------------------------------------------------
class TestCircuitBreakerStore:
    def make(self, **options):
        backend = InMemoryStore()
        flaky = FlakyStore(backend, failure_rate=0.0)
        options.setdefault("failure_threshold", 2)
        store = CircuitBreakerStore(flaky, **options)
        return backend, flaky, store

    def test_passthrough_when_closed(self):
        _backend, _flaky, store = self.make()
        store.put("k", "v")
        assert store.get("k") == "v"
        assert store.contains("k")
        assert store.get_with_version("k")[0] == "v"
        assert list(store.keys()) == ["k"]
        assert store.delete("k")

    def test_breaker_and_options_are_exclusive(self):
        with pytest.raises(ConfigurationError):
            CircuitBreakerStore(
                InMemoryStore(), breaker=CircuitBreaker(), failure_threshold=3
            )

    def test_tracked_failures_open_and_shed(self):
        _backend, flaky, store = self.make()
        store.put("k", "v")
        flaky.fail_next(2)
        for _ in range(2):
            with pytest.raises(StoreConnectionError):
                store.get("k")
        assert store.breaker.state is CircuitState.OPEN
        # shed without touching the backend
        before = flaky.successes
        with pytest.raises(CircuitOpenError):
            store.get("k")
        assert flaky.successes == before

    def test_semantic_errors_count_as_success(self):
        _backend, _flaky, store = self.make(failure_threshold=1)
        with pytest.raises(KeyNotFoundError):
            store.get("absent")
        assert store.breaker.state is CircuitState.CLOSED

    def test_recovery_probe_closes_via_store(self):
        clock = FakeClock()
        backend = InMemoryStore()
        flaky = FlakyStore(backend, failure_rate=0.0)
        store = CircuitBreakerStore(
            flaky, failure_threshold=1, recovery_timeout=3.0, clock=clock
        )
        store.put("k", "v")
        flaky.fail_next(1)
        with pytest.raises(StoreConnectionError):
            store.get("k")
        assert store.breaker.state is CircuitState.OPEN
        clock.advance(3.0)
        assert store.get("k") == "v"  # the probe
        assert store.breaker.state is CircuitState.CLOSED

    def test_keys_guarded_as_one_operation(self):
        _backend, flaky, store = self.make(failure_threshold=1)
        store.put("k", "v")
        flaky.fail_next(1)
        with pytest.raises(StoreConnectionError):
            store.keys()
        assert store.breaker.state is CircuitState.OPEN


# ----------------------------------------------------------------------
# Deadline budgets
# ----------------------------------------------------------------------
class TestDeadline:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Deadline(-1.0)

    def test_remaining_and_expiry(self):
        clock = FakeClock()
        deadline = Deadline(2.0, clock=clock)
        assert deadline.remaining() == pytest.approx(2.0)
        assert not deadline.expired
        clock.advance(2.5)
        assert deadline.remaining() == pytest.approx(-0.5)
        assert deadline.expired
        with pytest.raises(DeadlineExceededError):
            deadline.check("test op")

    def test_cap_derives_per_attempt_timeouts(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        assert deadline.cap(30.0) == pytest.approx(1.0)
        assert deadline.cap(0.2) == pytest.approx(0.2)
        assert deadline.cap(None) == pytest.approx(1.0)
        clock.advance(2.0)
        assert deadline.cap(30.0) == 0.0

    def test_scope_sets_and_restores_ambient(self):
        assert current_deadline() is None
        with deadline_scope(1.0) as deadline:
            assert current_deadline() is deadline
        assert current_deadline() is None

    def test_nested_scopes_only_tighten(self):
        clock = FakeClock()
        with deadline_scope(1.0, clock=clock):
            clock.advance(0.75)
            with deadline_scope(10.0, clock=clock) as inner:
                # 250 ms left in the outer budget: the inner scope cannot
                # grant itself ten seconds.
                assert inner.timeout == pytest.approx(0.25)

    def test_scope_accepts_deadline_instance(self):
        clock = FakeClock()
        deadline = Deadline(5.0, clock=clock)
        with deadline_scope(deadline) as installed:
            assert installed is deadline

    def test_retrying_store_respects_budget(self):
        clock = FakeClock()
        backend = InMemoryStore()
        flaky = FlakyStore(backend, failure_rate=1.0)
        store = RetryingStore(
            flaky, max_attempts=100, base_delay=0.05, sleep=clock.advance, seed=7
        )
        backend.put("k", "v")
        with deadline_scope(0.2, clock=clock):
            with pytest.raises(DeadlineExceededError) as info:
                store.get("k")
        # the budget bounded the ladder well below 100 attempts
        assert store.retries < 99
        assert isinstance(info.value.__cause__, StoreConnectionError)

    def test_deadline_expiry_is_counted(self):
        clock = FakeClock()
        obs = Observability()
        flaky = FlakyStore(InMemoryStore(), failure_rate=1.0)
        store = RetryingStore(
            flaky, max_attempts=10, sleep=clock.advance, seed=1, obs=obs
        )
        with deadline_scope(0.01, clock=clock):
            with pytest.raises(DeadlineExceededError):
                store.get("k")
        assert obs.registry.snapshot()["counters"]["kv.deadline.expired"] == 1

    def test_circuit_open_error_is_not_retried(self):
        """Composition order retry(circuit(store)): an open circuit fails fast."""
        flaky = FlakyStore(InMemoryStore(), failure_rate=0.0)
        guarded = CircuitBreakerStore(flaky, failure_threshold=1)
        retry = RetryingStore(guarded, max_attempts=5, sleep=lambda _s: None)
        flaky.fail_next(1)
        # Attempt 1 fails and opens the circuit (threshold=1); attempt 2 is
        # shed with CircuitOpenError, which the retry policy does not treat
        # as transient -- so it surfaces instead of burning attempts 3..5.
        with pytest.raises(CircuitOpenError):
            retry.get("k")
        assert guarded.breaker.state is CircuitState.OPEN
        assert retry.retries == 1


# ----------------------------------------------------------------------
# Chaos stores: per-op rates, bursts, latency injection
# ----------------------------------------------------------------------
class TestFlakyStoreChaos:
    def test_validation(self):
        store = InMemoryStore()
        with pytest.raises(ConfigurationError):
            FlakyStore(store, failure_rate=1.5)
        with pytest.raises(ConfigurationError):
            FlakyStore(store, failure_rates={"get": -0.1})
        with pytest.raises(ConfigurationError):
            FlakyStore(store, latency=-1.0)
        with pytest.raises(ConfigurationError):
            FlakyStore(store, failure_rate=0.0).fail_next(-1)

    def test_per_operation_rates(self):
        backend = InMemoryStore()
        flaky = FlakyStore(
            backend, failure_rate=0.0, failure_rates={"get": 1.0}
        )
        flaky.put("k", "v")  # writes unaffected
        with pytest.raises(StoreConnectionError):
            flaky.get("k")
        assert flaky.contains("k")  # other ops fall back to the 0.0 default

    def test_error_burst_mode(self):
        backend = InMemoryStore()
        backend.put("k", "v")
        flaky = FlakyStore(backend, failure_rate=0.0)
        flaky.fail_next(3)
        assert flaky.burst_remaining == 3
        for _ in range(3):
            with pytest.raises(StoreConnectionError):
                flaky.get("k")
        assert flaky.burst_remaining == 0
        assert flaky.get("k") == "v"  # recovered
        assert flaky.injected_failures == 3

    def test_latency_injection_is_recorded_not_slept(self):
        delays: list[float] = []
        backend = InMemoryStore()
        flaky = FlakyStore(
            backend,
            failure_rate=0.0,
            latency=0.010,
            latency_jitter=0.005,
            seed=3,
            sleep=delays.append,
        )
        flaky.put("k", "v")
        flaky.get("k")
        assert len(delays) == 2
        assert all(0.010 <= delay <= 0.015 for delay in delays)

    def test_latency_is_deterministic_per_seed(self):
        def run() -> list[float]:
            delays: list[float] = []
            flaky = FlakyStore(
                InMemoryStore(),
                failure_rate=0.0,
                latency_jitter=0.01,
                seed=42,
                sleep=delays.append,
            )
            flaky.put("a", 1)
            flaky.put("b", 2)
            return delays

        assert run() == run()

    def test_latency_only_store_never_fails(self):
        delays: list[float] = []
        laggy = FlakyStore(
            InMemoryStore(), failure_rate=0.0, latency=0.2, sleep=delays.append
        )
        laggy.put("k", "v")
        assert laggy.get("k") == "v"
        assert delays == [0.2, 0.2]
        assert laggy.injected_failures == 0


# ----------------------------------------------------------------------
# RetryingStore.keys() satellite fix
# ----------------------------------------------------------------------
class _MidIterationFlaky(InMemoryStore):
    """keys() dies mid-iteration on the first scan, succeeds afterwards."""

    def __init__(self) -> None:
        super().__init__()
        self.scans = 0

    def keys(self):
        self.scans += 1
        first = self.scans == 1
        for index, key in enumerate(super().keys()):
            if first and index == 1:
                raise StoreConnectionError("connection lost mid-scan")
            yield key


class TestRetryingKeys:
    def test_mid_iteration_failure_is_retried(self):
        backend = _MidIterationFlaky()
        for index in range(3):
            backend.put(f"k{index}", index)
        store = RetryingStore(backend, max_attempts=2, sleep=lambda _s: None)
        assert sorted(store.keys()) == ["k0", "k1", "k2"]
        assert backend.scans == 2
        assert store.retries == 1

    def test_exhaustion_still_raises(self):
        backend = InMemoryStore()
        backend.put("k", "v")
        flaky = FlakyStore(backend, failure_rate=0.0, failure_rates={"keys": 1.0})
        store = RetryingStore(flaky, max_attempts=2, sleep=lambda _s: None)
        with pytest.raises(StoreConnectionError):
            store.keys()
