"""Graceful degradation: serve the last known value when the origin is down.

The paper's enhanced clients exist because remote stores misbehave -- its
own evaluation shows a cloud store with high latency variance and outright
failures.  When that happens, most applications prefer a slightly old
answer over an error page.  :class:`ServeStaleStore` implements that
stale-while-revalidate contract at the key-value interface, so it works in
front of any backend (and composes with the circuit breaker and retry
wrappers; see ``docs/resilience.md`` for the recommended order):

* every successful read or write refreshes a bounded local snapshot of
  last-known-good values;
* when a read fails with a *degradable* error (circuit open, deadline
  exhausted, connection lost -- not semantic errors), the snapshot answers
  instead, provided it is younger than ``max_stale`` seconds;
* each stale serve schedules a background revalidation of that key, so
  the snapshot catches back up the moment the backend recovers.

A stale serve is never silent: it increments ``cache.stale_served``,
bumps the wrapper's :attr:`ServeStaleStore.stale_serves` counter, marks the
current span, and journals a ``stale_served`` event with the value's age.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Iterable, Mapping

from ..errors import (
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceededError,
    StoreConnectionError,
)
from ..kv.interface import KeyValueStore
from ..kv.wrappers import _DelegatingStore
from ..obs import Observability, resolve_obs

__all__ = ["ServeStaleStore", "DEFAULT_DEGRADE_ON"]

#: Error types worth degrading for: the backend is unreachable or out of
#: time.  Semantic errors (key not found...) always propagate.
DEFAULT_DEGRADE_ON: tuple[type[Exception], ...] = (
    CircuitOpenError,
    DeadlineExceededError,
    StoreConnectionError,
)

#: Snapshot entries retained by default (FIFO beyond this).
DEFAULT_MAX_ENTRIES = 4096


class ServeStaleStore(_DelegatingStore):
    """Answers reads from a last-known-good snapshot when the origin fails.

    The snapshot is *not* a cache in the read-path sense -- healthy reads
    always go to the inner store -- it is a parachute consulted only when
    the inner store raises a degradable error.
    """

    def __init__(
        self,
        inner: KeyValueStore,
        *,
        max_stale: float = 300.0,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        degrade_on: tuple[type[Exception], ...] = DEFAULT_DEGRADE_ON,
        revalidator: Callable[[Callable[[], None]], None] | None = None,
        clock: Callable[[], float] = time.monotonic,
        name: str | None = None,
        obs: Observability | None = None,
    ) -> None:
        """Wrap *inner*.

        :param max_stale: oldest snapshot age (seconds) still servable; a
            staler snapshot lets the original error propagate.
        :param max_entries: snapshot capacity (oldest-written evicted).
        :param degrade_on: error types that trigger stale serving.
        :param revalidator: how background revalidation thunks run; the
            default spawns a daemon thread per key.  Tests inject a
            collector and drain it synchronously.
        :param clock: injectable monotonic clock for age bookkeeping.
        """
        super().__init__(inner, name=name if name is not None else f"stale({inner.name})")
        if max_stale < 0:
            raise ConfigurationError("max_stale must be non-negative")
        if max_entries < 1:
            raise ConfigurationError("max_entries must be at least 1")
        self._max_stale = max_stale
        self._max_entries = max_entries
        self._degrade_on = degrade_on
        self._revalidator = revalidator
        self._clock = clock
        self._obs = resolve_obs(obs)
        self._lock = threading.Lock()
        self._snapshots: "OrderedDict[str, tuple[Any, float]]" = OrderedDict()
        self._revalidating: set[str] = set()
        #: reads answered from the snapshot because the origin failed
        self.stale_serves = 0
        #: background revalidations scheduled
        self.revalidations = 0

    # ------------------------------------------------------------------
    # Snapshot bookkeeping
    # ------------------------------------------------------------------
    def _remember(self, key: str, value: Any) -> None:
        with self._lock:
            self._snapshots.pop(key, None)
            self._snapshots[key] = (value, self._clock())
            while len(self._snapshots) > self._max_entries:
                self._snapshots.popitem(last=False)

    def _forget(self, key: str) -> None:
        with self._lock:
            self._snapshots.pop(key, None)

    def staleness(self, key: str) -> float | None:
        """Age in seconds of the snapshot for *key* (``None`` if absent)."""
        with self._lock:
            record = self._snapshots.get(key)
        if record is None:
            return None
        return self._clock() - record[1]

    # ------------------------------------------------------------------
    # Degraded read path
    # ------------------------------------------------------------------
    def _serve_stale(self, key: str, error: Exception) -> Any:
        with self._lock:
            record = self._snapshots.get(key)
        if record is None:
            raise error
        value, written_at = record
        age = self._clock() - written_at
        if age > self._max_stale:
            raise error
        self.stale_serves += 1
        if self._obs.enabled:
            self._obs.inc("cache.stale_served")
            self._obs.event(
                "stale_served", key=key, age=round(age, 6), error=type(error).__name__
            )
            self._obs.emit(
                "stale_served",
                store=self.name,
                key=key,
                age=round(age, 6),
                error=type(error).__name__,
            )
        self._schedule_revalidation(key)
        return value

    def _schedule_revalidation(self, key: str) -> None:
        with self._lock:
            if key in self._revalidating:
                return
            self._revalidating.add(key)
        self.revalidations += 1

        def revalidate() -> None:
            try:
                value = self._inner.get(key)
            except Exception:  # noqa: BLE001 - still down; keep the snapshot
                pass
            else:
                self._remember(key, value)
            finally:
                with self._lock:
                    self._revalidating.discard(key)

        if self._revalidator is not None:
            self._revalidator(revalidate)
        else:
            threading.Thread(
                target=revalidate, name=f"{self.name}-revalidate", daemon=True
            ).start()

    # ------------------------------------------------------------------
    # KeyValueStore surface
    # ------------------------------------------------------------------
    def get(self, key: str) -> Any:
        try:
            value = self._inner.get(key)
        except self._degrade_on as exc:
            return self._serve_stale(key, exc)
        self._remember(key, value)
        return value

    def get_with_version(self, key: str) -> tuple[Any, str]:
        # Version tokens cannot be trusted stale (the origin may have moved
        # on), so only the successful path feeds the snapshot here.
        value, version = self._inner.get_with_version(key)
        self._remember(key, value)
        return value, version

    def put(self, key: str, value: Any) -> None:
        self._inner.put(key, value)
        self._remember(key, value)

    def put_with_version(self, key: str, value: Any) -> str | None:
        version = self._inner.put_with_version(key, value)
        self._remember(key, value)
        return version

    def delete(self, key: str) -> bool:
        removed = self._inner.delete(key)
        self._forget(key)
        return removed

    # The batch forms are owned here, not inherited: a forwarded batch would
    # reach the backend without the snapshot seeing what it read or wrote.
    def get_many(self, keys: Iterable[str]) -> dict[str, Any]:
        keys = list(keys)
        try:
            found = self._inner.get_many(keys)
        except self._degrade_on as exc:
            return {key: self._serve_stale(key, exc) for key in keys}
        for key, value in found.items():
            self._remember(key, value)
        return found

    def put_many(self, items: Mapping[str, Any]) -> None:
        self._inner.put_many(items)
        for key, value in items.items():
            self._remember(key, value)

    def delete_many(self, keys: Iterable[str]) -> int:
        keys = list(keys)
        removed = self._inner.delete_many(keys)
        for key in keys:
            self._forget(key)
        return removed

    def clear(self) -> int:
        removed = self._inner.clear()
        with self._lock:
            self._snapshots.clear()
        return removed
