"""Resilient store wrappers: retries and primary/replica replication.

Two production-grade behaviours data store clients are expected to have:

* :class:`RetryingStore` -- transparent retry with exponential backoff and
  full jitter for *transient* failures (connection drops, timeouts).
  Semantic errors (key not found, serialization problems) are never
  retried.
* :class:`ReplicatedStore` -- the paper's "secondary repository" idea taken
  to its conclusion: writes go to a primary and every replica; reads come
  from the primary, failing over to replicas, with version-based
  read-repair pushing stale replicas forward.  This provides availability
  under store outages, with last-writer-wins convergence.

Both wrappers participate in the fault-tolerance plane
(``docs/resilience.md``): retries respect the ambient
:class:`~repro.kv.deadline.Deadline` budget (a retry ladder can never
exceed the caller's allowance), and :class:`ReplicatedStore` optionally
*hedges* slow reads -- after ``hedge_delay`` seconds without an answer the
read is also launched on the next replica and the first success wins,
collapsing tail latency under a slow primary.
"""

from __future__ import annotations

import queue
import random
import threading
import time
from typing import Any, Callable, Iterator, Sequence

from ..errors import (
    ConfigurationError,
    DataStoreError,
    DeadlineExceededError,
    KeyNotFoundError,
    StoreConnectionError,
)
from ..obs import Observability, resolve_obs
from .deadline import current_deadline
from .interface import KeyValueStore
from .wrappers import _DelegatingStore

__all__ = ["RetryingStore", "ReplicatedStore"]

#: unique "absent" marker for repair comparisons (None is a legal value)
_SENTINEL = object()


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
        if self._obs.enabled:
            self._obs.inc("kv.deadline.expired")
            self._obs.event("deadline_expired", store=self.name)
        error = DeadlineExceededError(
            f"deadline exhausted while retrying against {self.name}"
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


class ReplicatedStore(KeyValueStore):
    """Primary/replica store with failover reads and read-repair.

    Semantics:

    * **writes** land on the primary first (its failure fails the write),
      then on every replica; replica failures are tolerated and counted.
    * **reads** try the primary, then each replica in order.  When a read
      is served by a fallback, the value is *repaired* onto the stores
      that were tried first and missed it (best effort).  Members that were
      never consulted are synced by the explicit :meth:`repair` /
      :meth:`repair_all` anti-entropy pass instead.
    * **deletes** are applied everywhere; success if anyone had the key.

    This is availability-oriented, last-writer-wins replication -- the
    right fit for the paper's cache/secondary-repository use cases, not a
    consensus protocol.  For atomic cross-store updates use
    :mod:`repro.txn` instead.
    """

    def __init__(
        self,
        primary: KeyValueStore,
        replicas: Sequence[KeyValueStore],
        *,
        name: str = "replicated",
        read_repair: bool = True,
        owns_members: bool = True,
        hedge_delay: float | None = None,
        obs: Observability | None = None,
    ) -> None:
        """Compose the group.

        :param owns_members: when true (default), closing the composite
            closes the member stores; pass false when members are owned
            elsewhere (e.g. individually registered in a UDSM).
        :param hedge_delay: when set, :meth:`get` becomes a *hedged* read:
            the primary is asked first, and if it has not answered within
            this many seconds the read is also launched on the next
            replica (and so on down the member list); the first success
            wins.  Pick a value near the primary's p95 read latency so
            hedges fire only on tail requests.  Hedged reads skip
            read-repair (the losing request may still be in flight).
        :param obs: observability bundle; hedge launches count
            ``kv.hedge.launched``, reads won by a hedge count
            ``kv.hedge.wins``, and deadline expiries mid-read count
            ``kv.deadline.expired``.  Every public stats counter is also
            mirrored as a ``kv.replica.*`` counter (``write_failures``,
            ``failover_reads``, ``repairs``, ``hedged_reads``,
            ``hedge_wins``) so dashboards see replica health without
            polling the object.
        """
        if not replicas:
            raise ConfigurationError("ReplicatedStore needs at least one replica")
        if hedge_delay is not None and hedge_delay < 0:
            raise ConfigurationError("hedge_delay must be non-negative")
        self.name = name
        self._primary = primary
        self._replicas = list(replicas)
        self._read_repair = read_repair
        self._owns_members = owns_members
        self._hedge_delay = hedge_delay
        self._obs = resolve_obs(obs)
        # All five public counters below are touched from hedge worker
        # threads as well as the caller's thread, so every increment goes
        # through _count() under this lock -- a plain ``+=`` on an int is
        # a read-modify-write that loses updates under contention.
        self._stats_lock = threading.Lock()
        #: replica write failures tolerated so far
        self.replica_write_failures = 0
        #: reads served by a fallback store
        self.failover_reads = 0
        #: repair writes performed
        self.repairs = 0
        #: hedge requests launched (a slow leader triggered a backup read)
        self.hedged_reads = 0
        #: reads won by a hedge rather than the first store asked
        self.hedge_wins = 0

    # ------------------------------------------------------------------
    def _count(self, attr: str, metric: str, n: int = 1) -> None:
        """Bump a public stats counter (lock-guarded) and its obs mirror."""
        if n == 0:
            return
        with self._stats_lock:
            setattr(self, attr, getattr(self, attr) + n)
        if self._obs.enabled:
            self._obs.inc(metric, n)

    # ------------------------------------------------------------------
    @property
    def members(self) -> list[KeyValueStore]:
        return [self._primary, *self._replicas]

    @property
    def hedge_delay(self) -> float | None:
        """Seconds before a backup read is launched; ``None`` = no hedging.

        Writable at runtime (takes effect on the next :meth:`get`), which is
        how :class:`repro.obs.anomaly.EnableHedgingAction` turns hedging on
        while a latency anomaly is active and restores the prior value when
        it clears.
        """
        return self._hedge_delay

    @hedge_delay.setter
    def hedge_delay(self, value: float | None) -> None:
        if value is not None and value < 0:
            raise ConfigurationError("hedge_delay must be non-negative")
        self._hedge_delay = value

    def put(self, key: str, value: Any) -> None:
        self._primary.put(key, value)
        for replica in self._replicas:
            try:
                replica.put(key, value)
            except DataStoreError:
                self._count("replica_write_failures", "kv.replica.write_failures")

    def get(self, key: str) -> Any:
        if self._hedge_delay is not None:
            return self._hedged_get(key)
        return self._sequential_get(key)

    def _sequential_get(self, key: str) -> Any:
        missed: list[KeyValueStore] = []
        last_error: Exception | None = None
        for index, member in enumerate(self.members):
            try:
                value = member.get(key)
            except KeyNotFoundError as exc:
                missed.append(member)
                last_error = exc
                continue
            except DataStoreError as exc:
                last_error = exc
                continue
            if index > 0:
                self._count("failover_reads", "kv.replica.failover_reads")
            if self._read_repair and missed:
                for stale in missed:
                    try:
                        stale.put(key, value)
                        self._count("repairs", "kv.replica.repairs")
                    except DataStoreError:
                        pass
            return value
        if isinstance(last_error, KeyNotFoundError):
            raise KeyNotFoundError(key, self.name)
        raise last_error if last_error else KeyNotFoundError(key, self.name)

    def _hedged_get(self, key: str) -> Any:
        """Tail-latency-tolerant read: first success across staggered tries.

        Members are started in order, each after *hedge_delay* seconds of
        collective silence (or immediately once everything in flight has
        failed).  Whichever request succeeds first answers the caller;
        losing requests are left to finish on their daemon threads and
        their results are discarded.  Respects the ambient deadline budget.
        """
        members = self.members
        results: "queue.Queue[tuple[int, bool, Any]]" = queue.Queue()

        def launch(index: int) -> None:
            member = members[index]

            def run() -> None:
                try:
                    results.put((index, True, member.get(key)))
                except Exception as exc:  # noqa: BLE001 - relayed to the caller
                    results.put((index, False, exc))

            threading.Thread(
                target=run, name=f"{self.name}-hedge-{index}", daemon=True
            ).start()

        def launch_hedge(index: int) -> None:
            self._count("hedged_reads", "kv.replica.hedged_reads")
            if self._obs.enabled:
                self._obs.inc("kv.hedge.launched")
                self._obs.event("hedge", member=members[index].name)
                self._obs.emit("hedge", store=self.name, member=members[index].name)
            launch(index)

        deadline = current_deadline()
        launch(0)
        launched, pending = 1, 1
        errors: list[Exception] = []
        while pending or launched < len(members):
            if pending == 0:
                # Everything in flight failed; go to the next member now.
                launch_hedge(launched)
                launched += 1
                pending += 1
                continue
            wait = self._hedge_delay if launched < len(members) else None
            if deadline is not None:
                remaining = deadline.remaining()
                if remaining <= 0:
                    if self._obs.enabled:
                        self._obs.inc("kv.deadline.expired")
                        self._obs.event("deadline_expired", store=self.name)
                    raise DeadlineExceededError(
                        f"deadline exhausted during hedged read of {key!r} "
                        f"from {self.name}"
                    )
                wait = remaining if wait is None else min(wait, remaining)
            try:
                index, ok, payload = results.get(timeout=wait)
            except queue.Empty:
                if launched < len(members):
                    launch_hedge(launched)
                    launched += 1
                    pending += 1
                continue
            pending -= 1
            if ok:
                if index > 0:
                    self._count("hedge_wins", "kv.replica.hedge_wins")
                    if self._obs.enabled:
                        self._obs.inc("kv.hedge.wins")
                        self._obs.event("hedge_win", member=members[index].name)
                return payload
            errors.append(payload)
        if all(isinstance(error, KeyNotFoundError) for error in errors):
            raise KeyNotFoundError(key, self.name)
        raise next(
            error for error in errors if not isinstance(error, KeyNotFoundError)
        )

    def get_with_version(self, key: str) -> tuple[Any, str]:
        last_error: Exception | None = None
        for member in self.members:
            try:
                return member.get_with_version(key)
            except DataStoreError as exc:
                last_error = exc
        if isinstance(last_error, KeyNotFoundError):
            raise KeyNotFoundError(key, self.name)
        raise last_error if last_error else KeyNotFoundError(key, self.name)

    def delete(self, key: str) -> bool:
        removed = False
        for member in self.members:
            try:
                removed = member.delete(key) or removed
            except DataStoreError:
                pass
        return removed

    def contains(self, key: str) -> bool:
        for member in self.members:
            try:
                if member.contains(key):
                    return True
            except DataStoreError:
                continue
        return False

    def repair(self, key: str) -> int:
        """Anti-entropy for one key: copy the primary-preferred value onto
        every member missing or differing from it.  Returns members fixed.

        Read-repair only fixes members consulted *before* the one that
        served a read; this explicit form syncs everyone (e.g. after a
        replica rejoins).

        Robust to members dying mid-repair: a key that cannot be read from
        *any* member repairs zero members instead of raising, and a member
        that fails while being written simply isn't counted -- so a
        :meth:`repair_all` pass always visits every key, and ``repairs``
        reflects only writes that actually landed.
        """
        try:
            value = self.get(key)  # primary-preferred, with read repair
        except DataStoreError:
            # Every member is unreachable (or lost the key mid-pass):
            # nothing to copy from, so nothing repaired -- but the caller's
            # sweep over the remaining keys must go on.
            return 0
        fixed = 0
        for member in self.members:
            try:
                if member.get_or_default(key, _SENTINEL) != value:
                    member.put(key, value)
                    fixed += 1
            except DataStoreError:
                continue
        self._count("repairs", "kv.replica.repairs", fixed)
        return fixed

    def repair_all(self) -> int:
        """Run :meth:`repair` for every key any member knows.

        Member failures mid-pass are absorbed by :meth:`repair` (and by
        :meth:`keys`, which skips unreachable members), so a replica dying
        during the sweep cannot abort it.
        """
        return sum(self.repair(key) for key in list(self.keys()))

    def keys(self) -> Iterator[str]:
        """Union of keys across members (first reachable wins per key)."""
        seen: set[str] = set()
        for member in self.members:
            try:
                member_keys = list(member.keys())
            except DataStoreError:
                continue
            for key in member_keys:
                if key not in seen:
                    seen.add(key)
                    yield key

    def close(self) -> None:
        if self._owns_members:
            for member in self.members:
                member.close()

    def native(self) -> Any:
        return self._primary.native()
