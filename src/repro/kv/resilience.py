"""Resilient store wrapper: retries with backoff.

:class:`RetryingStore` is transparent retry with exponential backoff and
full jitter for *transient* failures (connection drops, timeouts).
Semantic errors (key not found, serialization problems) are never retried.

It participates in the fault-tolerance plane (``docs/resilience.md``):
retries respect the ambient :class:`~repro.kv.deadline.Deadline` budget, so
a retry ladder can never exceed the caller's allowance.  Primary/replica
replication (:class:`~repro.kv.quorum.ReplicatedStore`) lives in
:mod:`repro.kv.quorum`, on the member workers it shares with the quorum
group.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any, Callable

from ..errors import ConfigurationError, DeadlineExceededError, StoreConnectionError
from ..obs import Observability, resolve_obs
from .deadline import current_deadline, expired
from .interface import KeyValueStore
from .wrappers import _DelegatingStore

__all__ = ["RetryingStore"]


class RetryingStore(_DelegatingStore):
    """Retries transient failures with exponential backoff + full jitter."""

    def __init__(
        self,
        inner: KeyValueStore,
        *,
        max_attempts: int = 3,
        base_delay: float = 0.05,
        max_delay: float = 2.0,
        retry_on: tuple[type[Exception], ...] = (StoreConnectionError,),
        sleep: Callable[[float], None] = time.sleep,
        seed: int | None = None,
        name: str | None = None,
        obs: Observability | None = None,
    ) -> None:
        """Wrap *inner*.

        :param max_attempts: total tries per operation (1 = no retries).
        :param base_delay: first backoff ceiling, doubling per attempt,
            capped at *max_delay*; actual sleeps are uniform in
            ``[0, ceiling]`` (full jitter, so clients don't stampede).
        :param retry_on: exception types considered transient.
        :param sleep: injectable for tests.
        :param obs: observability bundle; each retry increments the
            ``kv.retry.retries`` counter and annotates the enclosing span
            with a ``retry`` event (attempt number, backoff delay, error
            type); exhausting all attempts counts ``kv.retry.exhausted``.
        """
        super().__init__(inner, name=name if name is not None else f"retry({inner.name})")
        if max_attempts < 1:
            raise ConfigurationError("max_attempts must be at least 1")
        if base_delay < 0 or max_delay < 0:
            raise ConfigurationError("delays must be non-negative")
        self._max_attempts = max_attempts
        self._base_delay = base_delay
        self._max_delay = max_delay
        self._retry_on = retry_on
        self._sleep = sleep
        self._rng = random.Random(seed)
        self._obs = resolve_obs(obs)
        self._lock = threading.Lock()
        #: number of retries performed (attempts beyond the first)
        self.retries = 0

    # ------------------------------------------------------------------
    def _deadline_exceeded(self, cause: Exception | None) -> DeadlineExceededError:
        error = expired(
            self._obs, self.name, f"deadline exhausted while retrying against {self.name}"
        )
        error.__cause__ = cause
        return error

    def _invoke(self, op: str, method: Callable[..., Any], *args: Any) -> Any:
        last_error: Exception | None = None
        deadline = current_deadline()
        for attempt in range(self._max_attempts):
            if deadline is not None and deadline.expired:
                raise self._deadline_exceeded(last_error)
            try:
                return method(*args)
            except self._retry_on as exc:
                last_error = exc
                if attempt == self._max_attempts - 1:
                    break
                with self._lock:
                    self.retries += 1
                ceiling = min(self._max_delay, self._base_delay * (2**attempt))
                delay = self._rng.uniform(0, ceiling)
                if deadline is not None:
                    # Never sleep past the budget: cap the backoff at what
                    # remains, and give up when nothing meaningful is left.
                    remaining = deadline.remaining()
                    if remaining <= 0:
                        raise self._deadline_exceeded(exc)
                    delay = min(delay, remaining)
                if self._obs.enabled:
                    self._obs.inc("kv.retry.retries")
                    self._obs.event(
                        "retry",
                        attempt=attempt + 1,
                        delay=round(delay, 6),
                        error=type(exc).__name__,
                    )
                self._sleep(delay)
        assert last_error is not None
        if self._obs.enabled:
            self._obs.inc("kv.retry.exhausted")
            self._obs.event(
                "retry_exhausted",
                attempts=self._max_attempts,
                error=type(last_error).__name__,
            )
            # Also journal to the structured event log (if one is attached):
            # exhaustion is an operator-facing incident, not just a span note.
            self._obs.emit(
                "retry_exhausted",
                store=self.name,
                attempts=self._max_attempts,
                error=type(last_error).__name__,
            )
        raise last_error
