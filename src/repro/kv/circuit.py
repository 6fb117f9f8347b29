"""Circuit breakers: fail fast against a dead backend, recover by probing.

Retries (:class:`~repro.kv.resilience.RetryingStore`) handle *transient*
faults; when a backend is actually down, retrying every caller multiplies
load on the failing store and makes every caller wait out full timeout
ladders.  A circuit breaker contains the failure instead:

* **closed** -- normal operation; failures are counted against two
  thresholds (consecutive failures, and failure *rate* over a sliding
  window of recent outcomes);
* **open** -- every call is shed immediately with
  :class:`~repro.errors.CircuitOpenError` (no backend contact at all)
  until ``recovery_timeout`` elapses;
* **half-open** -- a bounded number of *probe* calls are let through; if
  ``probe_successes`` of them succeed the circuit closes, any probe
  failure snaps it open again and restarts the recovery clock.

Every transition and every shed call is visible through the ``repro.obs``
plane (``kv.circuit.*`` metrics plus structured ``circuit_*`` events), and
the clock is injectable so the full lifecycle is testable without sleeping.

:class:`CircuitBreakerStore` applies a breaker to any
:class:`~repro.kv.interface.KeyValueStore`; compose it *inside* a
:class:`~repro.kv.resilience.RetryingStore` (``retry(circuit(store))``) so
an open circuit is not retried -- ``CircuitOpenError`` is deliberately not
a :class:`~repro.errors.StoreConnectionError`.
"""

from __future__ import annotations

import enum
import threading
import time
from collections import deque
from typing import Any, Callable

from ..errors import (
    CircuitOpenError,
    ConfigurationError,
    DataStoreError,
    StoreConnectionError,
)
from ..obs import Observability, resolve_obs
from .interface import KeyValueStore
from .wrappers import _DelegatingStore

__all__ = ["CircuitState", "CircuitBreaker", "CircuitBreakerStore"]


class CircuitState(enum.Enum):
    """Breaker position: closed lets traffic flow, open sheds it."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


#: Gauge encoding of each state (``kv.circuit.<name>.state``).
_STATE_GAUGE = {CircuitState.CLOSED: 0, CircuitState.HALF_OPEN: 1, CircuitState.OPEN: 2}


class CircuitBreaker:
    """Thread-safe closed -> open -> half-open -> closed state machine.

    Failure accounting is caller-driven: wrap each backend call in
    :meth:`acquire` / :meth:`record_success` / :meth:`record_failure`
    (or use :class:`CircuitBreakerStore`, which does it for you).
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 5,
        failure_rate_threshold: float | None = None,
        window: int = 20,
        min_calls: int = 10,
        recovery_timeout: float = 30.0,
        probe_successes: int = 1,
        max_probes: int = 1,
        clock: Callable[[], float] = time.monotonic,
        name: str = "circuit",
        obs: Observability | None = None,
    ) -> None:
        """Configure the thresholds.

        :param failure_threshold: consecutive failures that open the
            circuit (the fast trip for a hard-down backend).
        :param failure_rate_threshold: when set (a fraction in ``(0, 1]``),
            the circuit also opens once at least *min_calls* of the last
            *window* outcomes are recorded and the failing fraction reaches
            the threshold (the slow trip for a degraded backend that still
            answers sometimes).
        :param recovery_timeout: seconds the circuit stays open before the
            first probe is allowed through.
        :param probe_successes: successful probes required to close again.
        :param max_probes: probe calls allowed in flight while half-open;
            everything beyond it is shed like an open circuit.
        :param clock: injectable monotonic clock (tests drive recovery
            without sleeping).
        :param obs: observability bundle; transitions count
            ``kv.circuit.opened`` / ``half_open`` / ``closed``, shed calls
            count ``kv.circuit.rejected``, and the per-breaker gauge
            ``kv.circuit.<name>.state`` tracks the position (0 closed,
            1 half-open, 2 open).  Transitions are also journalled as
            ``circuit_*`` structured events.
        """
        if failure_threshold < 1:
            raise ConfigurationError("failure_threshold must be at least 1")
        if failure_rate_threshold is not None and not 0 < failure_rate_threshold <= 1:
            raise ConfigurationError("failure_rate_threshold must be within (0, 1]")
        if window < 1 or min_calls < 1:
            raise ConfigurationError("window and min_calls must be at least 1")
        if recovery_timeout < 0:
            raise ConfigurationError("recovery_timeout must be non-negative")
        if probe_successes < 1 or max_probes < 1:
            raise ConfigurationError("probe_successes and max_probes must be >= 1")
        self.name = name
        self._failure_threshold = failure_threshold
        self._rate_threshold = failure_rate_threshold
        self._min_calls = min_calls
        self._recovery_timeout = recovery_timeout
        self._probe_successes_needed = probe_successes
        self._max_probes = max_probes
        self._clock = clock
        self._obs = resolve_obs(obs)
        self._lock = threading.Lock()
        self._state = CircuitState.CLOSED
        self._consecutive_failures = 0
        self._outcomes: deque[bool] = deque(maxlen=window)  # True = failure
        self._opened_at = 0.0
        self._probes_inflight = 0
        self._probe_successes = 0
        #: lifetime transition counts (for reports and assertions)
        self.opened = 0
        self.closed = 0
        self.rejected = 0
        if self._obs.enabled:
            self._obs.gauge(f"kv.circuit.{name}.state").set(0)

    # ------------------------------------------------------------------
    @property
    def state(self) -> CircuitState:
        """Current position (advancing open -> half-open when due)."""
        with self._lock:
            self._maybe_half_open()
            return self._state

    def failure_rate(self) -> float:
        """Failing fraction of the recorded window (0.0 when empty)."""
        with self._lock:
            if not self._outcomes:
                return 0.0
            return sum(self._outcomes) / len(self._outcomes)

    # ------------------------------------------------------------------
    # The call protocol
    # ------------------------------------------------------------------
    def acquire(self) -> None:
        """Reserve permission for one call; raises when the circuit sheds it.

        Every successful ``acquire`` MUST be balanced by exactly one
        :meth:`record_success` or :meth:`record_failure`.
        """
        with self._lock:
            self._maybe_half_open()
            if self._state is CircuitState.CLOSED:
                return
            if (
                self._state is CircuitState.HALF_OPEN
                and self._probes_inflight < self._max_probes
            ):
                self._probes_inflight += 1
                return
            self.rejected += 1
            retry_after = None
            if self._state is CircuitState.OPEN:
                retry_after = max(
                    0.0, self._opened_at + self._recovery_timeout - self._clock()
                )
        if self._obs.enabled:
            self._obs.inc("kv.circuit.rejected")
            self._obs.event("circuit_rejected", breaker=self.name)
        raise CircuitOpenError(self.name, retry_after)

    def record_success(self) -> None:
        """Report that an admitted call succeeded."""
        transition = None
        with self._lock:
            if self._state is CircuitState.HALF_OPEN:
                self._probes_inflight = max(0, self._probes_inflight - 1)
                self._probe_successes += 1
                if self._probe_successes >= self._probe_successes_needed:
                    self._transition(CircuitState.CLOSED)
                    transition = CircuitState.CLOSED
            else:
                self._consecutive_failures = 0
                self._outcomes.append(False)
        if transition is not None:
            self._emit_transition(transition)

    def record_failure(self, error: Exception | None = None) -> None:
        """Report that an admitted call failed (a *tracked* failure)."""
        transition = None
        with self._lock:
            if self._state is CircuitState.HALF_OPEN:
                # A failed probe: snap open and restart the recovery clock.
                self._probes_inflight = max(0, self._probes_inflight - 1)
                self._transition(CircuitState.OPEN)
                transition = CircuitState.OPEN
            elif self._state is CircuitState.CLOSED:
                self._consecutive_failures += 1
                self._outcomes.append(True)
                if self._tripped():
                    self._transition(CircuitState.OPEN)
                    transition = CircuitState.OPEN
        if transition is not None:
            self._emit_transition(transition, error=error)

    # ------------------------------------------------------------------
    # Manual overrides (the anomaly engine's preemptive hooks)
    # ------------------------------------------------------------------
    def trip(self, *, reason: str = "manual") -> None:
        """Force the circuit open now, regardless of failure accounting.

        The preemptive hook: :class:`repro.obs.anomaly` trips a breaker the
        moment the metrics plane sees trouble, before callers have eaten
        ``failure_threshold`` real failures.  The recovery clock restarts,
        so the breaker probes its way back to closed exactly as if it had
        opened organically.  Idempotent while already open.
        """
        with self._lock:
            if self._state is CircuitState.OPEN:
                return
            self._transition(CircuitState.OPEN)
        self._emit_transition(CircuitState.OPEN, reason=reason)

    def reset(self, *, reason: str = "manual") -> None:
        """Force the circuit closed and clear failure accounting.

        The revert half of :meth:`trip`: the anomaly engine calls this on
        ``anomaly_cleared``.  If the backend is still sick, the breaker's
        own thresholds will re-open it from real traffic -- reset restores
        the *policy*, not the backend.  Idempotent while already closed.
        """
        with self._lock:
            if self._state is CircuitState.CLOSED:
                self._consecutive_failures = 0
                self._outcomes.clear()
                return
            self._transition(CircuitState.CLOSED)
        self._emit_transition(CircuitState.CLOSED, reason=reason)

    # ------------------------------------------------------------------
    # Internals (callers hold self._lock)
    # ------------------------------------------------------------------
    def _tripped(self) -> bool:
        if self._consecutive_failures >= self._failure_threshold:
            return True
        if self._rate_threshold is None or len(self._outcomes) < self._min_calls:
            return False
        return sum(self._outcomes) / len(self._outcomes) >= self._rate_threshold

    def _maybe_half_open(self) -> None:
        if (
            self._state is CircuitState.OPEN
            and self._clock() - self._opened_at >= self._recovery_timeout
        ):
            self._transition(CircuitState.HALF_OPEN)
            # Emitting outside the lock is not worth the complexity here:
            # gauge/counter updates are cheap and reentrancy-safe.
            self._emit_transition(CircuitState.HALF_OPEN)

    def _transition(self, state: CircuitState) -> None:
        self._state = state
        if state is CircuitState.OPEN:
            self.opened += 1
            self._opened_at = self._clock()
            self._probes_inflight = 0
            self._probe_successes = 0
        elif state is CircuitState.CLOSED:
            self.closed += 1
            self._consecutive_failures = 0
            self._outcomes.clear()
            self._probes_inflight = 0
            self._probe_successes = 0
        elif state is CircuitState.HALF_OPEN:
            self._probe_successes = 0

    def _emit_transition(
        self,
        state: CircuitState,
        *,
        error: Exception | None = None,
        reason: str | None = None,
    ) -> None:
        if not self._obs.enabled:
            return
        metric = {
            CircuitState.OPEN: "kv.circuit.opened",
            CircuitState.HALF_OPEN: "kv.circuit.half_open",
            CircuitState.CLOSED: "kv.circuit.closed",
        }[state]
        self._obs.inc(metric)
        self._obs.gauge(f"kv.circuit.{self.name}.state").set(_STATE_GAUGE[state])
        fields: dict[str, Any] = {"breaker": self.name}
        if error is not None:
            fields["error"] = type(error).__name__
        if reason is not None:
            fields["reason"] = reason
        self._obs.event(f"circuit_{state.name.lower()}", **fields)
        self._obs.emit(f"circuit_{state.name.lower()}", **fields)

    def __repr__(self) -> str:
        return (
            f"<CircuitBreaker {self.name!r} state={self.state.value} "
            f"opened={self.opened} rejected={self.rejected}>"
        )


class CircuitBreakerStore(_DelegatingStore):
    """Sheds load for a failing backend with a fast ``CircuitOpenError``.

    Only *tracked* error types (``track_on``, connection errors by default)
    count as failures; semantic errors such as
    :class:`~repro.errors.KeyNotFoundError` prove the backend is alive and
    count as successes.  Composition order matters: put the retry wrapper
    *outside* (``RetryingStore(CircuitBreakerStore(backend))``) so retries
    stop the moment the circuit opens.
    """

    def __init__(
        self,
        inner: KeyValueStore,
        *,
        breaker: CircuitBreaker | None = None,
        track_on: tuple[type[Exception], ...] = (StoreConnectionError,),
        name: str | None = None,
        obs: Observability | None = None,
        **breaker_options: Any,
    ) -> None:
        """Wrap *inner*.

        :param breaker: share an existing breaker (e.g. between the read
            and write paths of one backend); by default a fresh one named
            after the inner store is created from *breaker_options*.
        :param track_on: exception types that count as backend failures.
        """
        super().__init__(inner, name=name if name is not None else f"circuit({inner.name})")
        if breaker is not None and breaker_options:
            raise ConfigurationError(
                "pass either a breaker instance or breaker options, not both"
            )
        self._breaker = (
            breaker
            if breaker is not None
            else CircuitBreaker(name=inner.name, obs=obs, **breaker_options)
        )
        self._track_on = track_on

    @property
    def breaker(self) -> CircuitBreaker:
        return self._breaker

    # ------------------------------------------------------------------
    def _invoke(self, op: str, method: Callable[..., Any], *args: Any) -> Any:
        self._breaker.acquire()
        try:
            result = method(*args)
        except self._track_on as exc:
            self._breaker.record_failure(exc)
            raise
        except DataStoreError:
            # Semantic errors (key not found, serialization...) mean the
            # backend answered: that is a success for breaker purposes.
            self._breaker.record_success()
            raise
        self._breaker.record_success()
        return result
