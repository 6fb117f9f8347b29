"""Performance monitoring (paper Section II.A).

"The UDSM collects both summary performance statistics such as average
latency as well as detailed performance statistics such as past latency
measurements taken over a period of time.  There is thus the capability to
collect detailed data for recent requests while only retaining summary
statistics for older data.  Performance data can be stored persistently
using any of the data stores supported by the UDSM."

Implementation:

* :class:`OperationStats` -- per (store, operation): running summary
  (count/mean/variance via Welford, min/max) that never forgets, plus a
  bounded ring of the most recent individual measurements for percentile
  queries.  Old measurements age out of the ring but stay in the summary.
* :class:`PerformanceMonitor` -- the registry of those stats, with
  :meth:`~PerformanceMonitor.persist` / :meth:`~PerformanceMonitor.restore`
  onto any :class:`~repro.kv.interface.KeyValueStore`.
* :class:`MonitoredStore` -- a transparent wrapper that times every
  key-value operation on a store and feeds the monitor; because it is
  written against the interface, monitoring works for every backend.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from typing import Any, Callable

from ..errors import MonitoringError
from ..kv.circuit import CircuitBreaker, CircuitState
from ..kv.interface import KeyValueStore
from ..kv.wrappers import _DelegatingStore
from ..obs.events import EventLog
from ..obs.metrics import Counter, Histogram, MetricsRegistry, percentile

__all__ = ["OperationStats", "PerformanceMonitor", "MonitoredStore", "StoreHealth"]

DEFAULT_RECENT_WINDOW = 1024


class OperationStats:
    """Latency statistics for one (store, operation) pair.

    All latencies are in seconds.  Thread-safe.
    """

    def __init__(
        self,
        recent_window: int = DEFAULT_RECENT_WINDOW,
        *,
        timer: "Callable[[], float]" = time.monotonic,
    ) -> None:
        if recent_window < 1:
            raise MonitoringError("recent_window must be at least 1")
        self._lock = threading.Lock()
        self._timer = timer
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._total_bytes = 0
        self._recent: deque[float] = deque(maxlen=recent_window)
        self._recent_at: deque[float] = deque(maxlen=recent_window)

    # ------------------------------------------------------------------
    def record(self, latency: float, *, size: int = 0) -> None:
        """Add one measurement (Welford update + recent ring)."""
        with self._lock:
            self._count += 1
            delta = latency - self._mean
            self._mean += delta / self._count
            self._m2 += delta * (latency - self._mean)
            self._min = min(self._min, latency)
            self._max = max(self._max, latency)
            self._total_bytes += size
            self._recent.append(latency)
            self._recent_at.append(self._timer())

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def mean(self) -> float:
        with self._lock:
            return self._mean

    @property
    def stdev(self) -> float:
        with self._lock:
            if self._count < 2:
                return 0.0
            return math.sqrt(self._m2 / (self._count - 1))

    @property
    def minimum(self) -> float:
        with self._lock:
            return self._min if self._count else 0.0

    @property
    def maximum(self) -> float:
        with self._lock:
            return self._max if self._count else 0.0

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return self._total_bytes

    def recent(self) -> list[float]:
        """Copy of the detailed recent-measurement window (oldest first)."""
        with self._lock:
            return list(self._recent)

    def recent_rate(self, window_seconds: float = 60.0) -> float:
        """Operations per second over the trailing *window_seconds*.

        Computed from the retained detail ring, so the answer saturates at
        the ring capacity -- a rate that equals ``capacity / window`` may
        be an undercount.
        """
        if window_seconds <= 0:
            raise MonitoringError("window_seconds must be positive")
        cutoff = self._timer() - window_seconds
        with self._lock:
            in_window = sum(1 for stamp in self._recent_at if stamp >= cutoff)
        return in_window / window_seconds

    def percentile(self, fraction: float) -> float:
        """Percentile over the *recent* window (nearest-rank).

        Summary stats cover all history; percentiles are only meaningful
        over the retained detail, which is exactly the paper's
        detailed-recent/summary-old split.
        """
        if not 0.0 <= fraction <= 1.0:
            raise MonitoringError("percentile fraction must be within [0, 1]")
        with self._lock:
            recent = list(self._recent)
        return percentile(recent, fraction)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Summary (not the recent ring) as a plain dict for persistence."""
        with self._lock:
            return {
                "count": self._count,
                "mean": self._mean,
                "m2": self._m2,
                "min": self._min if self._count else None,
                "max": self._max if self._count else None,
                "total_bytes": self._total_bytes,
            }

    @classmethod
    def from_dict(cls, data: dict[str, Any], *, recent_window: int = DEFAULT_RECENT_WINDOW) -> "OperationStats":
        stats = cls(recent_window)
        stats._count = int(data["count"])
        stats._mean = float(data["mean"])
        stats._m2 = float(data["m2"])
        stats._min = math.inf if data["min"] is None else float(data["min"])
        stats._max = -math.inf if data["max"] is None else float(data["max"])
        stats._total_bytes = int(data.get("total_bytes", 0))
        return stats

    def __repr__(self) -> str:
        return (
            f"OperationStats(count={self.count}, mean={self.mean * 1e3:.3f}ms, "
            f"stdev={self.stdev * 1e3:.3f}ms)"
        )


class PerformanceMonitor:
    """Registry of per-(store, operation) statistics.

    When constructed with a shared :class:`~repro.obs.metrics.MetricsRegistry`
    (the UDSM passes its observability registry automatically), every
    measurement is *also* forwarded into ``store.<name>.<op>.seconds``
    latency histograms and ``store.<name>.<op>.bytes`` counters, so the
    monitor's tables and the registry's exports describe one set of numbers.
    """

    def __init__(
        self,
        *,
        recent_window: int = DEFAULT_RECENT_WINDOW,
        registry: MetricsRegistry | None = None,
        events: "EventLog | None" = None,
        slow_op_threshold: float | None = None,
    ) -> None:
        """:param events: a structured event log; measurements at or over
            *slow_op_threshold* seconds are journalled there as ``slow_op``
            records (monitor-sourced, so no span tree is attached).
        :param slow_op_threshold: slow-operation latency floor in seconds;
            ``None`` disables the slow-op journal."""
        self._recent_window = recent_window
        self._stats: dict[tuple[str, str], OperationStats] = {}
        self._lock = threading.Lock()
        self._registry = registry
        self._handles: dict[tuple[str, str], tuple[Histogram, Counter]] = {}
        self._events = events
        self._slow_op_threshold = slow_op_threshold

    # ------------------------------------------------------------------
    def record(self, store: str, operation: str, latency: float, *, size: int = 0) -> None:
        """Record one measurement for ``store.operation``."""
        self.stats_for(store, operation).record(latency, size=size)
        if self._registry is not None:
            histogram, bytes_counter = self._handles_for(store, operation)
            histogram.observe(latency)
            if size:
                bytes_counter.inc(size)
        if (
            self._events is not None
            and self._slow_op_threshold is not None
            and latency >= self._slow_op_threshold
        ):
            self._events.emit(
                "slow_op",
                source="monitor",
                op=f"{store}.{operation}",
                seconds=round(latency, 6),
                threshold=self._slow_op_threshold,
            )

    def _handles_for(self, store: str, operation: str) -> tuple[Histogram, Counter]:
        key = (store, operation)
        handles = self._handles.get(key)
        if handles is None:
            with self._lock:
                handles = self._handles.get(key)
                if handles is None:
                    prefix = f"store.{store}.{operation}"
                    handles = (
                        self._registry.histogram(prefix + ".seconds"),
                        self._registry.counter(prefix + ".bytes"),
                    )
                    self._handles[key] = handles
        return handles

    def stats_for(self, store: str, operation: str) -> OperationStats:
        """Get (creating if needed) the stats bucket for a pair."""
        key = (store, operation)
        with self._lock:
            stats = self._stats.get(key)
            if stats is None:
                stats = OperationStats(self._recent_window)
                self._stats[key] = stats
            return stats

    def snapshot(self) -> dict[tuple[str, str], OperationStats]:
        """Copy of the registry (buckets themselves are live objects)."""
        with self._lock:
            return dict(self._stats)

    def report(self) -> str:
        """Human-readable latency table, one row per (store, operation)."""
        rows = [
            ("store", "op", "count", "mean ms", "stdev ms", "p50 ms", "p95 ms", "p99 ms", "max ms")
        ]
        for (store, operation), stats in sorted(self.snapshot().items()):
            rows.append(
                (
                    store,
                    operation,
                    str(stats.count),
                    f"{stats.mean * 1e3:.3f}",
                    f"{stats.stdev * 1e3:.3f}",
                    f"{stats.percentile(0.50) * 1e3:.3f}",
                    f"{stats.percentile(0.95) * 1e3:.3f}",
                    f"{stats.percentile(0.99) * 1e3:.3f}",
                    f"{stats.maximum * 1e3:.3f}",
                )
            )
        widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
        lines = [
            "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
            for row in rows
        ]
        lines.insert(1, "  ".join("-" * width for width in widths))
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Persistence onto any registered store
    # ------------------------------------------------------------------
    def persist(self, store: KeyValueStore, key: str = "udsm-performance") -> None:
        """Write all summaries to *store* under *key*."""
        payload = {
            f"{name}\x00{operation}": stats.to_dict()
            for (name, operation), stats in self.snapshot().items()
        }
        store.put(key, payload)

    def restore(self, store: KeyValueStore, key: str = "udsm-performance") -> None:
        """Merge persisted summaries back in (replacing same-name buckets)."""
        payload = store.get(key)
        if not isinstance(payload, dict):
            raise MonitoringError(f"persisted monitor data under {key!r} is corrupt")
        with self._lock:
            for packed, data in payload.items():
                name, _sep, operation = packed.partition("\x00")
                self._stats[(name, operation)] = OperationStats.from_dict(
                    data, recent_window=self._recent_window
                )


class StoreHealth:
    """Per-store health, derived from tracked circuit breakers.

    The monitoring counterpart of the fault-tolerance plane: the UDSM
    registers the breaker of every store it protects (see
    :meth:`~repro.udsm.manager.UniversalDataStoreManager.protect`), and
    routing decisions consult this registry to steer traffic away from
    open-circuited stores.  A store with no tracked breaker is presumed
    healthy -- health tracking is opt-in per store.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._breakers: dict[str, CircuitBreaker] = {}

    def track(self, name: str, breaker: CircuitBreaker) -> None:
        """Derive *name*'s health from *breaker* from now on."""
        with self._lock:
            self._breakers[name] = breaker

    def untrack(self, name: str) -> None:
        with self._lock:
            self._breakers.pop(name, None)

    def is_healthy(self, name: str) -> bool:
        """False only while *name*'s breaker is refusing calls (OPEN).

        HALF_OPEN counts as healthy: the breaker is admitting probes, and
        shunning the store then would prevent it from ever recovering.
        """
        with self._lock:
            breaker = self._breakers.get(name)
        if breaker is None:
            return True
        # Reading .state advances open -> half-open once recovery is due, so
        # a quiet store never reads as unhealthy forever.
        return breaker.state is not CircuitState.OPEN

    def snapshot(self) -> dict[str, CircuitState]:
        """Current breaker state per tracked store."""
        with self._lock:
            breakers = dict(self._breakers)
        return {name: breaker.state for name, breaker in breakers.items()}


#: Operations recorded under another operation's metric name (they are the
#: same work to an operator: a read, a write, a revalidation, a key scan).
#: Everything else -- the batch operations included -- records under its own.
_METRIC_NAMES = {
    "get_with_version": "get",
    "put_with_version": "put",
    "get_if_modified": "revalidate",
    "keys_with_prefix": "keys",
}


class MonitoredStore(_DelegatingStore):
    """Times every operation of a wrapped store into a monitor.

    Written once against the interface; monitoring therefore comes free for
    every backend, exactly as the paper argues for interface-level features.
    A batch operation is one sample under its own name (``put_many`` with
    the summed byte size of its values), not one per key.
    """

    def __init__(
        self,
        inner: KeyValueStore,
        monitor: PerformanceMonitor,
        *,
        name: str | None = None,
    ) -> None:
        super().__init__(inner, name=name)
        self._monitor = monitor

    @property
    def monitor(self) -> PerformanceMonitor:
        return self._monitor

    # ------------------------------------------------------------------
    @staticmethod
    def _size_of(value: Any) -> int:
        if isinstance(value, (bytes, bytearray)):
            return len(value)
        if isinstance(value, str):
            return len(value.encode("utf-8"))
        return 0

    def _invoke(self, op: str, method: Callable[..., Any], *args: Any) -> Any:
        if op in ("put", "put_with_version"):
            size = self._size_of(args[1])
        elif op == "put_many":
            size = sum(map(self._size_of, args[0].values()))
        else:
            size = 0
        start = time.perf_counter()
        try:
            return method(*args)
        finally:
            self._monitor.record(
                self.name, _METRIC_NAMES.get(op, op), time.perf_counter() - start, size=size
            )
