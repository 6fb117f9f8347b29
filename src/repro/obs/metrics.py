"""Process-wide metrics: counters, gauges, fixed-bucket histograms.

The paper's UDSM monitor (:mod:`repro.udsm.monitoring`) sees whole
operations at the store boundary.  The metrics registry is the substrate
*underneath* it: one thread-safe, zero-dependency home for every number the
stack produces -- cache hit/miss counters, per-stage pipeline latencies,
network round trips, retry counts -- named by one scheme
(``layer.component.op``, see ``docs/observability.md``) so that the cache
layer, the value pipeline, and the UDSM report one consistent set of
figures instead of three private ones.

Design notes:

* **Counters are objects, not registry methods.**  Hot paths capture the
  :class:`Counter` once and call ``inc()`` on it; the name -> metric lookup
  is paid at setup time, not per operation.  This also lets
  :class:`repro.caching.stats.CacheStats` use registry counters as its
  *backing storage* (``bind``), so the same event is never counted in two
  uncoordinated places.
* **Histograms use fixed buckets** (Prometheus-style cumulative ``le``
  bounds).  Recording is O(log buckets) with no allocation; percentiles are
  bucket-resolution estimates, which is the right trade for an always-on
  registry.  The UDSM monitor keeps its exact recent-window percentiles on
  top of this.
* **Writes take no lock** (the LongAdder idea).  A :class:`Counter` or
  :class:`Histogram` keeps one cell per writing thread, keyed by
  :func:`threading.get_ident`; a write touches only its own thread's cell,
  so no other thread ever races it, and reads merge every cell in
  O(threads x buckets).  The lock is taken only to add a thread's first
  cell and to reset.  Cells are not dropped when a thread exits: the OS
  hands its ident to a later thread, which adds to the same cell, so the
  cell count tracks the most threads ever alive at once.
"""

from __future__ import annotations

import json
import math
import threading
from bisect import bisect_left
from threading import get_ident
from typing import Any, Iterable

from ..errors import ConfigurationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "snapshot_delta",
    "bucket_percentile",
    "percentile",
]

#: Default histogram bucket upper bounds, in seconds: 1 microsecond to 10
#: seconds, roughly logarithmic.  Chosen to resolve both an in-process dict
#: probe (~1 us) and a WAN store round trip (~100 ms) on one scale.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6,
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """Monotonic counter.  Thread-safe; usable standalone or via a registry.

    One ``[total]`` cell per writing thread; :attr:`value` is their sum.
    """

    __slots__ = ("name", "_lock", "_cells")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._lock = threading.Lock()
        self._cells: dict[int, list[int]] = {}

    def inc(self, amount: int = 1) -> None:
        """Add *amount* (must be non-negative; counters never go down)."""
        if amount < 0:
            raise ConfigurationError("counters cannot be decremented")
        try:
            self._cells[get_ident()][0] += amount
        except KeyError:
            self._new_cell()[0] += amount

    def _new_cell(self) -> list[int]:
        with self._lock:
            return self._cells.setdefault(get_ident(), [0])

    @property
    def value(self) -> int:
        return sum([cell[0] for cell in list(self._cells.values())])

    def reset(self) -> None:
        """Zero the counter (for test isolation and explicit stat resets).

        The cells are swapped out, not zeroed in place: an increment racing
        the reset lands in the retired cells, i.e. counts as before it.
        """
        with self._lock:
            self._cells = {}

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self.value})"


class Gauge:
    """A value that can go up and down (pool occupancy, cache bytes...)."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, value={self.value})"


class Histogram:
    """Fixed-bucket distribution with count/sum/min/max.

    Bucket semantics are cumulative upper bounds: an observation lands in
    the first bucket whose bound is >= the value (``le`` inclusive, like
    Prometheus); values above the last bound go to the overflow bucket.

    Each writing thread records into its own shard, one list laid out as
    ``[bucket_0 .. bucket_n, sum, min, max]`` (bucket ``n`` is the
    overflow); the count is the sum of the buckets, so it can never
    disagree with them.  Every reader merges the shards.
    """

    __slots__ = ("name", "_lock", "_bounds", "_shards")

    def __init__(
        self,
        name: str = "",
        *,
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        bounds = tuple(sorted(buckets))
        if not bounds:
            raise ConfigurationError("a histogram needs at least one bucket bound")
        self.name = name
        self._lock = threading.Lock()
        self._bounds = bounds
        self._shards: dict[int, list[Any]] = {}

    # ------------------------------------------------------------------
    def observe(self, value: float) -> None:
        """Record one observation."""
        try:
            shard = self._shards[get_ident()]
        except KeyError:
            shard = self._new_shard()
        shard[bisect_left(self._bounds, value)] += 1
        shard[-3] += value
        if value < shard[-2]:
            shard[-2] = value
        if value > shard[-1]:
            shard[-1] = value

    def _new_shard(self) -> list[Any]:
        with self._lock:
            return self._shards.setdefault(
                get_ident(), [0] * (len(self._bounds) + 1) + [0.0, math.inf, -math.inf]
            )

    def _merge(self) -> tuple[list[int], float, float, float]:
        """``(buckets, sum, min, max)`` over every thread's shard; min and
        max read 0.0 while the histogram is empty."""
        shards = list(self._shards.values())
        width = len(self._bounds) + 1
        buckets = [sum(column) for column in zip(*(shard[:width] for shard in shards))]
        if not any(buckets):
            return [0] * width, 0.0, 0.0, 0.0
        total = sum([shard[-3] for shard in shards], 0.0)
        return (
            buckets,
            total,
            min([shard[-2] for shard in shards]),
            max([shard[-1] for shard in shards]),
        )

    # ------------------------------------------------------------------
    @property
    def bounds(self) -> tuple[float, ...]:
        return self._bounds

    @property
    def count(self) -> int:
        return sum(self._merge()[0])

    @property
    def sum(self) -> float:
        return self._merge()[1]

    @property
    def mean(self) -> float:
        buckets, total, _minimum, _maximum = self._merge()
        count = sum(buckets)
        return total / count if count else 0.0

    @property
    def minimum(self) -> float:
        return self._merge()[2]

    @property
    def maximum(self) -> float:
        return self._merge()[3]

    def bucket_counts(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs; the final bound is
        ``inf`` (the overflow bucket)."""
        return self._cumulative(self._merge()[0])

    def _cumulative(self, counts: list[int]) -> list[tuple[float, int]]:
        pairs: list[tuple[float, int]] = []
        running = 0
        for bound, count in zip((*self._bounds, math.inf), counts):
            running += count
            pairs.append((bound, running))
        return pairs

    def percentile(self, fraction: float) -> float:
        """Bucket-resolution percentile estimate (the bucket's upper bound,
        clamped to the observed maximum)."""
        buckets, _total, _minimum, maximum = self._merge()
        return bucket_percentile(self._cumulative(buckets), fraction, maximum=maximum)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Plain-data copy (for JSON export and assertions)."""
        buckets, total, minimum, maximum = self._merge()
        count = sum(buckets)
        return {
            "count": count,
            "sum": total,
            "mean": total / count if count else 0.0,
            "min": minimum,
            "max": maximum,
            "buckets": self._cumulative(buckets),
        }

    def reset(self) -> None:
        """Zero the histogram; shards are swapped out, as in
        :meth:`Counter.reset`."""
        with self._lock:
            self._shards = {}

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count}, mean={self.mean:.6g})"


class MetricsRegistry:
    """Get-or-create registry of named metrics.

    One registry is meant to serve a whole process (the UDSM shares its
    registry with every cache and pipeline it wires up); ``counter`` /
    ``gauge`` / ``histogram`` are cheap enough to call at setup time and
    return live objects for the hot path.  A name identifies exactly one
    metric of exactly one kind; re-requesting it returns the same object,
    and requesting it as a different kind raises
    :class:`~repro.errors.ConfigurationError`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def _check_name(self, name: str, want: dict[str, Any]) -> None:
        for kind, table in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
        ):
            if table is not want and name in table:
                raise ConfigurationError(f"metric {name!r} already registered as a {kind}")

    def counter(self, name: str) -> Counter:
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                self._check_name(name, self._counters)
                metric = self._counters[name] = Counter(name)
            return metric

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                self._check_name(name, self._gauges)
                metric = self._gauges[name] = Gauge(name)
            return metric

    def histogram(
        self, name: str, *, buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS
    ) -> Histogram:
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                self._check_name(name, self._histograms)
                metric = self._histograms[name] = Histogram(name, buckets=buckets)
            return metric

    def names(self) -> list[str]:
        with self._lock:
            return sorted([*self._counters, *self._gauges, *self._histograms])

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """All metrics as plain data: ``{"counters": {...}, "gauges": {...},
        "histograms": {name: {count, sum, mean, min, max, buckets}}}``."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {name: c.value for name, c in sorted(counters.items())},
            "gauges": {name: g.value for name, g in sorted(gauges.items())},
            "histograms": {name: h.snapshot() for name, h in sorted(histograms.items())},
        }

    def to_json(self, *, indent: int | None = None) -> str:
        """JSON export of :meth:`snapshot` (bucket bounds as finite floats;
        the overflow bucket is labelled ``"+inf"``)."""
        snap = self.snapshot()
        for data in snap["histograms"].values():
            data["buckets"] = [
                ["+inf" if math.isinf(bound) else bound, count]
                for bound, count in data["buckets"]
            ]
        return json.dumps(snap, indent=indent)

    def render_text(self) -> str:
        """Human-readable dump: counters and gauges as ``name = value``
        lines, histograms as a latency-style table (milliseconds)."""
        snap = self.snapshot()
        lines: list[str] = []
        if snap["counters"]:
            lines.append("counters:")
            width = max(len(name) for name in snap["counters"])
            for name, value in snap["counters"].items():
                lines.append(f"  {name.ljust(width)}  {value}")
        if snap["gauges"]:
            lines.append("gauges:")
            width = max(len(name) for name in snap["gauges"])
            for name, value in snap["gauges"].items():
                lines.append(f"  {name.ljust(width)}  {value:g}")
        if snap["histograms"]:
            lines.append("histograms (ms):")
            rows = [("", "count", "mean", "p50", "p95", "p99", "max")]
            for name, hist in snap["histograms"].items():
                p50, p95, p99 = (
                    bucket_percentile(hist["buckets"], fraction, maximum=hist["max"])
                    for fraction in (0.50, 0.95, 0.99)
                )
                rows.append(
                    (
                        name,
                        str(hist["count"]),
                        f"{hist['mean'] * 1e3:.3f}",
                        f"{p50 * 1e3:.3f}",
                        f"{p95 * 1e3:.3f}",
                        f"{p99 * 1e3:.3f}",
                        f"{hist['max'] * 1e3:.3f}",
                    )
                )
            widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
            for row in rows:
                lines.append(
                    "  " + "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
                )
        return "\n".join(lines) if lines else "(no metrics recorded)"

    def reset(self) -> None:
        """Zero every metric (objects stay live; hot-path handles survive)."""
        with self._lock:
            metrics = [*self._counters.values(), *self._histograms.values()]
            gauges = list(self._gauges.values())
        for metric in metrics:
            metric.reset()
        for gauge in gauges:
            gauge.set(0.0)

    def __repr__(self) -> str:
        return f"<MetricsRegistry metrics={len(self.names())}>"

    def delta(self, previous: dict[str, Any] | None, *, current: dict[str, Any] | None = None) -> dict[str, Any]:
        """Per-series increments since *previous* (a prior :meth:`snapshot`).

        Convenience wrapper over :func:`snapshot_delta`.  When *current* is
        omitted a fresh snapshot is taken internally; callers that need the
        current snapshot for the *next* round (rate dashboards, the anomaly
        engine) should snapshot once themselves and pass it in, so the
        delta and the retained snapshot agree exactly::

            current = registry.snapshot()
            delta = registry.delta(previous, current=current)
            previous = current
        """
        if current is None:
            current = self.snapshot()
        return snapshot_delta(previous, current)


# ----------------------------------------------------------------------
# Snapshot arithmetic (plain data -- works on live snapshots and on
# ``/metrics.json`` scrapes alike, where the overflow bound is "+inf").
# ----------------------------------------------------------------------

def _bound_key(bound: Any) -> float:
    """Normalize a bucket bound: floats pass through, the JSON overflow
    label ``"+inf"`` (and friends) becomes ``math.inf``."""
    if isinstance(bound, str):
        text = bound.lstrip("+")
        return math.inf if text.lower() == "inf" else float(text)
    return float(bound)


def snapshot_delta(previous: dict[str, Any] | None, current: dict[str, Any]) -> dict[str, Any]:
    """Per-series increments between two registry snapshots.

    Returns the same ``{"counters", "gauges", "histograms"}`` shape as
    :meth:`MetricsRegistry.snapshot`, but with interval semantics:

    * **counters** -- increment since *previous*.  A series absent from
      *previous* contributes its full value; a negative difference (the
      counter was reset in between) clamps to the current value, so a
      restart never yields negative rates.
    * **gauges** -- change in level (``current - previous``; new series
      contribute their level).  The absolute level lives in *current*,
      which the caller already holds.
    * **histograms** -- interval ``count``/``sum``/``mean`` plus
      ``buckets`` as cumulative ``(bound, interval_count)`` pairs (the
      same cumulative-``le`` convention as :meth:`Histogram.bucket_counts`,
      restricted to the interval).  A count that went backwards is treated
      as a reset: the whole current histogram is the interval.

    *previous* may be ``None`` (first poll): everything is new.  Buckets
    are matched by bound value, so snapshots from a live registry and from
    a ``/metrics.json`` scrape (string ``"+inf"`` bound) mix freely.
    """
    previous = previous or {}
    prev_counters = previous.get("counters", {})
    counters = {}
    for name, value in current.get("counters", {}).items():
        diff = value - prev_counters.get(name, 0)
        counters[name] = value if diff < 0 else diff
    prev_gauges = previous.get("gauges", {})
    gauges = {
        name: value - prev_gauges.get(name, 0.0)
        for name, value in current.get("gauges", {}).items()
    }
    prev_hists = previous.get("histograms", {})
    histograms = {}
    for name, cur in current.get("histograms", {}).items():
        prev = prev_hists.get(name)
        count = cur.get("count", 0) - (prev.get("count", 0) if prev else 0)
        total = cur.get("sum", 0.0) - (prev.get("sum", 0.0) if prev else 0.0)
        if count < 0:  # reset between snapshots
            prev = None
            count = cur.get("count", 0)
            total = cur.get("sum", 0.0)
        prev_buckets: dict[float, int] = {}
        if prev:
            for bound, cumulative in prev.get("buckets", []):
                prev_buckets[_bound_key(bound)] = cumulative
        buckets = [
            (bound, cumulative - prev_buckets.get(_bound_key(bound), 0))
            for bound, cumulative in cur.get("buckets", [])
        ]
        histograms[name] = {
            "count": count,
            "sum": total,
            "mean": total / count if count else 0.0,
            "buckets": buckets,
        }
    return {"counters": counters, "gauges": gauges, "histograms": histograms}


def percentile(samples: Iterable[float], fraction: float) -> float:
    """Nearest-rank percentile of raw samples (``0.0`` when there are none).

    The one raw-sample routine: callers keep their own range check and
    error type.
    """
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(fraction * len(ordered))) - 1]


def bucket_percentile(
    buckets: Iterable[tuple[Any, int]], fraction: float, *, maximum: float | None = None
) -> float:
    """Nearest-rank percentile from cumulative ``(bound, count)`` pairs.

    The one bucket routine, behind :meth:`Histogram.percentile` and usable
    on snapshot/delta bucket lists (including scraped ones with a
    ``"+inf"`` overflow label).  Returns the upper bound of the bucket
    holding the rank, clamped to *maximum* (the observed maximum) when it
    is given; without it, a rank in the overflow bucket returns the last
    finite bound (the histogram cannot resolve beyond it).
    """
    if not 0.0 <= fraction <= 1.0:
        raise ConfigurationError("percentile fraction must be within [0, 1]")
    pairs = [(_bound_key(bound), count) for bound, count in buckets]
    if not pairs or pairs[-1][1] <= 0:
        return 0.0
    rank = max(1, math.ceil(fraction * pairs[-1][1]))
    last_finite = 0.0
    for bound, cumulative in pairs:
        if math.isfinite(bound):
            last_finite = bound
        if cumulative >= rank:
            if maximum is not None:
                return min(bound, maximum)
            return bound if math.isfinite(bound) else last_finite
    return last_finite  # pragma: no cover - cumulative covers total
