"""Failure-injection store for resilience testing.

Wraps any store and makes a deterministic, seeded fraction of operations
fail with a configurable error -- the tool the test suite (and downstream
users) need to exercise retry logic, circuit breakers, transaction
recovery, and cache behaviour under a misbehaving backend without a real
flaky network.  Three fault modes compose:

* **random failures** -- a seeded per-operation probability, optionally
  different per operation name (fail only ``get``, say);
* **error bursts** -- :meth:`FlakyStore.fail_next` forces the next N
  operations to fail then recover, which is exactly the deterministic
  fault shape circuit-breaker open/half-open tests need;
* **injected latency** -- a fixed delay plus seeded jitter before each
  operation (through an injectable ``sleep``, so tests can count the
  delays instead of waiting them out).

A fourth failure shape has its own wrapper: :class:`PartitionedStore`
models a **network partition** -- *symmetric* unreachability where reads
*and* writes raise :class:`~repro.errors.StoreUnavailableError` until the
partition heals, either on command (``partition()`` / ``heal()``) or on a
seeded flap schedule evaluated against an injectable clock, so partition
tests advance virtual time instead of sleeping.  It is the tool the
quorum-replication tests use to sever a member, write through the
partition, heal it, and assert anti-entropy convergence
(``scripts/check_quorum.py``).
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any, Callable, Mapping

from ..errors import ConfigurationError, StoreConnectionError, StoreUnavailableError
from ..obs import Observability, resolve_obs
from .interface import KeyValueStore
from .wrappers import _DelegatingStore

__all__ = ["FlakyStore", "PartitionedStore"]


class FlakyStore(_DelegatingStore):
    """A store whose operations fail with probability ``failure_rate``.

    Failures happen *before* the inner operation runs (the common network
    failure mode); set ``fail_after=True`` to fail after it instead
    (the nastier "did my write land?" mode used by idempotency tests).
    """

    def __init__(
        self,
        inner: KeyValueStore,
        *,
        failure_rate: float = 0.5,
        failure_rates: "Mapping[str, float] | None" = None,
        seed: int = 0,
        error_factory: Callable[[], Exception] | None = None,
        fail_after: bool = False,
        latency: float = 0.0,
        latency_jitter: float = 0.0,
        sleep: Callable[[float], None] | None = None,
        name: str | None = None,
    ) -> None:
        """Wrap *inner*.

        :param failure_rate: default injection probability for every
            operation.
        :param failure_rates: per-operation overrides keyed by any
            ``KeyValueStore`` operation name (``get``, ``put_many``,
            ``size`` ...; an unknown name is a ``ConfigurationError``);
            operations not named fall back to *failure_rate*.  E.g.
            ``{"get": 1.0}`` fails only single-key reads.
        :param latency: seconds of delay injected before every operation.
        :param latency_jitter: extra uniform ``[0, jitter]`` seconds drawn
            from the seeded RNG (deterministic across runs).
        :param sleep: how delays are served (default ``time.sleep``);
            inject a recorder to test latency behaviour without waiting.
        """
        super().__init__(inner, name=name if name is not None else f"flaky({inner.name})")
        if not 0.0 <= failure_rate <= 1.0:
            raise ConfigurationError("failure_rate must be within [0, 1]")
        for operation, rate in (failure_rates or {}).items():
            if operation not in self.OPERATIONS:
                raise ConfigurationError(
                    f"failure_rates names no KeyValueStore operation: {operation!r}"
                )
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(
                    f"failure_rates[{operation!r}] must be within [0, 1]"
                )
        if latency < 0 or latency_jitter < 0:
            raise ConfigurationError("latency and latency_jitter must be non-negative")
        self._failure_rate = failure_rate
        self._failure_rates = dict(failure_rates or {})
        self._rng = random.Random(seed)
        self._error_factory = error_factory if error_factory is not None else (
            lambda: StoreConnectionError(f"injected failure in {self.name}")
        )
        self._fail_after = fail_after
        self._latency = latency
        self._latency_jitter = latency_jitter
        self._sleep = sleep if sleep is not None else time.sleep
        self._lock = threading.Lock()
        self._burst_remaining = 0
        #: operations that were failed by injection
        self.injected_failures = 0
        #: operations that went through
        self.successes = 0

    # ------------------------------------------------------------------
    def fail_next(self, count: int) -> None:
        """Force the next *count* operations to fail, then recover.

        The deterministic error-burst mode: exactly N consecutive failures
        regardless of the random rates, which is how breaker tests drive
        closed -> open and make the recovery probe succeed on schedule.
        """
        if count < 0:
            raise ConfigurationError("burst count must be non-negative")
        with self._lock:
            self._burst_remaining = count

    @property
    def burst_remaining(self) -> int:
        """Forced failures still pending from :meth:`fail_next`."""
        with self._lock:
            return self._burst_remaining

    def set_latency(self, latency: float, *, jitter: float | None = None) -> None:
        """Change the injected delay mid-run (takes effect next operation).

        The latency-step mode: anomaly-detection tests start a workload at
        baseline speed, then ``set_latency(0.05)`` to inject a step the
        latency rules must catch, then ``set_latency(0.0)`` to recover.
        *jitter* is left unchanged unless given.
        """
        if latency < 0 or (jitter is not None and jitter < 0):
            raise ConfigurationError("latency and jitter must be non-negative")
        with self._lock:
            self._latency = latency
            if jitter is not None:
                self._latency_jitter = jitter

    @property
    def latency(self) -> float:
        """Currently injected fixed delay (seconds)."""
        with self._lock:
            return self._latency

    # ------------------------------------------------------------------
    def _roll(self, operation: str) -> bool:
        with self._lock:
            if self._burst_remaining > 0:
                self._burst_remaining -= 1
                return True
            rate = self._failure_rates.get(operation, self._failure_rate)
            return self._rng.random() < rate

    def _invoke(self, op: str, method: Callable[..., Any], *args: Any) -> Any:
        if self._latency or self._latency_jitter:
            with self._lock:
                delay = self._latency + (
                    self._rng.uniform(0, self._latency_jitter)
                    if self._latency_jitter
                    else 0.0
                )
            self._sleep(delay)
        should_fail = self._roll(op)
        if not should_fail or self._fail_after:
            result = method(*args)
        with self._lock:
            if should_fail:
                self.injected_failures += 1
            else:
                self.successes += 1
        if should_fail:
            raise self._error_factory()
        return result


class PartitionedStore(_DelegatingStore):
    """A store severed from the network on command or on a flap schedule.

    While partitioned, **every** operation -- reads and writes alike --
    raises :class:`~repro.errors.StoreUnavailableError` without touching
    the inner store (the symmetric unreachability of a real network
    partition, unlike :class:`FlakyStore`'s per-operation coin flips).
    Partitions come from two composable sources:

    * **manual**: :meth:`partition` severs the store until :meth:`heal`;
    * **scheduled**: :meth:`schedule_flaps` lays out seeded
      healthy/partitioned windows evaluated against the injectable
      *clock*, so a test advances virtual time to move through flaps
      deterministically -- zero real sleeps.

    :meth:`heal` also truncates a scheduled window that is currently
    active (an operator fixing the link early); future windows remain
    until :meth:`clear_schedule`.
    """

    def __init__(
        self,
        inner: KeyValueStore,
        *,
        clock: Callable[[], float] = time.monotonic,
        name: str | None = None,
        obs: Observability | None = None,
    ) -> None:
        super().__init__(
            inner, name=name if name is not None else f"partitioned({inner.name})"
        )
        self._clock = clock
        self._obs = resolve_obs(obs)
        self._lock = threading.Lock()
        self._manual = False
        self._windows: list[tuple[float, float]] = []
        #: operations rejected while partitioned
        self.unavailable_ops = 0
        #: manual partition() calls
        self.partitions = 0
        #: manual heal() calls
        self.heals = 0

    # ------------------------------------------------------------------
    def partition(self) -> None:
        """Sever the store now (until :meth:`heal`)."""
        with self._lock:
            self._manual = True
            self.partitions += 1
        if self._obs.enabled:
            self._obs.inc("kv.chaos.partitions")
            self._obs.emit("partition", store=self.name)

    def heal(self) -> None:
        """Reconnect: clears the manual partition and ends any scheduled
        window that is active right now (future windows still apply)."""
        now = self._clock()
        with self._lock:
            self._manual = False
            self.heals += 1
            self._windows = [
                (start, min(end, now)) if start <= now < end else (start, end)
                for start, end in self._windows
            ]
        if self._obs.enabled:
            self._obs.inc("kv.chaos.heals")
            self._obs.emit("heal", store=self.name)

    def schedule_flaps(
        self,
        *,
        seed: int,
        flaps: int,
        mean_healthy: float,
        mean_partitioned: float,
        start: float | None = None,
    ) -> list[tuple[float, float]]:
        """Append *flaps* seeded partition windows starting after *start*.

        Durations are exponentially distributed around the two means
        (the classic link-flap model), drawn from ``random.Random(seed)``
        so a test run is reproducible.  Returns the windows added.
        """
        if flaps < 0:
            raise ConfigurationError("flaps must be non-negative")
        if mean_healthy <= 0 or mean_partitioned <= 0:
            raise ConfigurationError("flap durations must be positive")
        rng = random.Random(seed)
        cursor = self._clock() if start is None else start
        windows: list[tuple[float, float]] = []
        for _ in range(flaps):
            cursor += rng.expovariate(1.0 / mean_healthy)
            down = rng.expovariate(1.0 / mean_partitioned)
            windows.append((cursor, cursor + down))
            cursor += down
        with self._lock:
            self._windows.extend(windows)
        return windows

    def clear_schedule(self) -> None:
        """Drop every scheduled flap window (manual state unchanged)."""
        with self._lock:
            self._windows.clear()

    @property
    def windows(self) -> list[tuple[float, float]]:
        """The scheduled ``(start, end)`` partition windows."""
        with self._lock:
            return list(self._windows)

    def is_partitioned(self) -> bool:
        """Whether an operation issued right now would be rejected."""
        now = self._clock()
        with self._lock:
            if self._manual:
                return True
            return any(start <= now < end for start, end in self._windows)

    # ------------------------------------------------------------------
    def _invoke(self, op: str, method: Callable[..., Any], *args: Any) -> Any:
        if self.is_partitioned():
            with self._lock:
                self.unavailable_ops += 1
            if self._obs.enabled:
                self._obs.inc("kv.chaos.unavailable")
            raise StoreUnavailableError(
                f"store {self.name!r} is unreachable (network partition)"
            )
        return method(*args)

