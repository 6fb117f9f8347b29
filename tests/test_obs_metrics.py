"""The metrics half of repro.obs: counters, gauges, histograms, registry.

Covers the semantics docs/observability.md promises: le-inclusive bucket
boundaries, bucket-resolution percentiles clamped to the observed max,
get-or-create identity with cross-kind name conflicts, and the
"one set of numbers" integrations (CacheStats.bind, the stack-distance
profiler, the UDSM performance monitor).
"""

from __future__ import annotations

import json
import math
import sys
import threading
import time

import pytest

from repro.errors import ConfigurationError
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("c")
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_increment_rejected(self):
        counter = Counter()
        with pytest.raises(ConfigurationError):
            counter.inc(-1)
        assert counter.value == 0

    def test_reset(self):
        counter = Counter()
        counter.inc(7)
        counter.reset()
        assert counter.value == 0


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("g")
        assert gauge.value == 0.0
        gauge.set(10.0)
        gauge.inc(2.5)
        gauge.dec()
        assert gauge.value == pytest.approx(11.5)


class TestHistogram:
    def test_requires_at_least_one_bucket(self):
        with pytest.raises(ConfigurationError):
            Histogram(buckets=())

    def test_bounds_are_sorted(self):
        assert Histogram(buckets=(2.0, 0.5, 1.0)).bounds == (0.5, 1.0, 2.0)

    def test_boundary_value_lands_in_its_bucket(self):
        """`le` semantics: an observation equal to a bound counts in that
        bucket, not the next one."""
        hist = Histogram(buckets=(1.0, 2.0))
        hist.observe(1.0)            # == first bound
        hist.observe(1.0000001)      # just above it
        hist.observe(5.0)            # above every bound -> overflow
        assert hist.bucket_counts() == [(1.0, 1), (2.0, 2), (math.inf, 3)]

    def test_bucket_counts_are_cumulative(self):
        hist = Histogram(buckets=(0.1, 0.2, 0.3))
        for value in (0.05, 0.15, 0.15, 0.25):
            hist.observe(value)
        assert hist.bucket_counts() == [(0.1, 1), (0.2, 3), (0.3, 4), (math.inf, 4)]

    def test_summary_statistics(self):
        hist = Histogram(buckets=(1.0,))
        for value in (0.2, 0.4, 0.6):
            hist.observe(value)
        assert hist.count == 3
        assert hist.sum == pytest.approx(1.2)
        assert hist.mean == pytest.approx(0.4)
        assert hist.minimum == pytest.approx(0.2)
        assert hist.maximum == pytest.approx(0.6)

    def test_empty_histogram_summaries(self):
        hist = Histogram()
        assert hist.count == 0
        assert hist.mean == 0.0
        assert hist.minimum == 0.0
        assert hist.maximum == 0.0
        assert hist.percentile(0.99) == 0.0

    def test_percentile_fraction_validated(self):
        hist = Histogram()
        for bad in (-0.1, 1.1):
            with pytest.raises(ConfigurationError):
                hist.percentile(bad)

    def test_percentile_returns_bucket_bound(self):
        hist = Histogram(buckets=(1.0, 3.0))
        for _ in range(9):
            hist.observe(0.5)
        hist.observe(2.5)
        assert hist.percentile(0.5) == 1.0      # rank 5 falls in the le=1.0 bucket
        assert hist.percentile(1.0) == 2.5      # le=3.0 bound clamped to observed max

    def test_percentile_clamped_to_observed_max(self):
        """A coarse bucket must not report a percentile above anything that
        was actually observed."""
        hist = Histogram(buckets=(10.0,))
        hist.observe(0.002)
        assert hist.percentile(0.99) == pytest.approx(0.002)

    def test_reset_clears_everything(self):
        hist = Histogram(buckets=(1.0,))
        hist.observe(0.5)
        hist.reset()
        assert hist.count == 0
        assert hist.bucket_counts() == [(1.0, 0), (math.inf, 0)]

    def test_default_buckets_span_microseconds_to_seconds(self):
        assert DEFAULT_LATENCY_BUCKETS[0] == 1e-6
        assert DEFAULT_LATENCY_BUCKETS[-1] == 10.0
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)


class TestMetricsRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")

    def test_name_identifies_exactly_one_kind(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ConfigurationError):
            registry.gauge("x")
        with pytest.raises(ConfigurationError):
            registry.histogram("x")
        registry.histogram("y")
        with pytest.raises(ConfigurationError):
            registry.counter("y")

    def test_names_sorted_across_kinds(self):
        registry = MetricsRegistry()
        registry.histogram("b")
        registry.counter("c")
        registry.gauge("a")
        assert registry.names() == ["a", "b", "c"]

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc(3)
        registry.gauge("occupancy").set(0.5)
        registry.histogram("get.seconds").observe(0.001)
        snap = registry.snapshot()
        assert snap["counters"] == {"hits": 3}
        assert snap["gauges"] == {"occupancy": 0.5}
        assert snap["histograms"]["get.seconds"]["count"] == 1

    def test_to_json_round_trips_with_inf_label(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0,)).observe(2.0)
        data = json.loads(registry.to_json())
        buckets = data["histograms"]["h"]["buckets"]
        assert buckets[-1] == ["+inf", 1]
        assert buckets[0] == [1.0, 0]

    def test_render_text(self):
        registry = MetricsRegistry()
        assert registry.render_text() == "(no metrics recorded)"
        registry.counter("client.cache_hits").inc(2)
        registry.histogram("client.get.seconds").observe(0.002)
        text = registry.render_text()
        assert "counters:" in text
        assert "client.cache_hits" in text and "2" in text
        assert "histograms (ms):" in text
        assert "p99" in text

    def test_reset_keeps_objects_live(self):
        """Hot-path handles captured before reset() must keep feeding the
        registry afterwards."""
        registry = MetricsRegistry()
        handle = registry.counter("ops")
        handle.inc(5)
        registry.gauge("depth").set(3.0)
        registry.histogram("h").observe(1.0)
        registry.reset()
        snap = registry.snapshot()
        assert snap["counters"]["ops"] == 0
        assert snap["gauges"]["depth"] == 0.0
        assert snap["histograms"]["h"]["count"] == 0
        handle.inc()
        assert registry.counter("ops").value == 1

    def test_concurrent_updates_are_not_lost(self):
        registry = MetricsRegistry()
        counter = registry.counter("shared")
        histogram = registry.histogram("latency")
        threads_n, per_thread = 8, 500

        def hammer():
            for _ in range(per_thread):
                counter.inc()
                histogram.observe(0.001)

        threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == threads_n * per_thread
        assert histogram.count == threads_n * per_thread


class _Yielding(int):
    """An int whose reflected addition releases the GIL before it returns,
    forcing a thread switch between a cell's read and its write."""

    def __radd__(self, other):
        time.sleep(0)
        return other + int(self)


class _YieldingFloat(float):
    def __radd__(self, other):
        time.sleep(0)
        return other + float(self)


def _run_threads(target, count: int) -> None:
    """Start *count* threads on ``target(index)`` with a tiny switch
    interval (so writers interleave as often as possible) and join them."""
    threads = [threading.Thread(target=target, args=(index,)) for index in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


class TestPerThreadCells:
    """Writes go to the writer's own cell; reads merge.  Nothing may be lost,
    double-counted, or torn, and the cell count must stay bounded."""

    THREADS = 8
    WRITES = 2_000
    BUCKETS = (0.5, 1.0, 2.0, 4.0)

    @staticmethod
    def value(thread: int, index: int) -> float:
        # Multiples of 1/8 below 8: every partial sum is exact in binary
        # floating point, so the merged sum cannot depend on merge order.
        return ((thread * 7 + index * 3) % 64) / 8

    def test_threaded_writes_equal_a_single_threaded_reference(self):
        counter = Counter("c")
        hist = Histogram("h", buckets=self.BUCKETS)
        barrier = threading.Barrier(self.THREADS)

        def writer(thread: int) -> None:
            barrier.wait()
            for index in range(self.WRITES):
                # Every 8th write gives the GIL away in the middle of the
                # cell's read-modify-write: a cell shared between threads
                # would lose updates here (as it can anywhere on an
                # interpreter without a GIL).
                if index % 8 == 0:
                    counter.inc(_Yielding(index % 3 + 1))
                    hist.observe(_YieldingFloat(self.value(thread, index)))
                else:
                    counter.inc(index % 3 + 1)
                    hist.observe(self.value(thread, index))

        _run_threads(writer, self.THREADS)

        reference_counter = Counter()
        reference = Histogram(buckets=self.BUCKETS)
        for thread in range(self.THREADS):
            for index in range(self.WRITES):
                reference_counter.inc(index % 3 + 1)
                reference.observe(self.value(thread, index))
        assert counter.value == reference_counter.value
        assert hist.snapshot() == reference.snapshot()
        assert (hist.count, hist.sum, hist.minimum, hist.maximum) == (
            reference.count,
            reference.sum,
            reference.minimum,
            reference.maximum,
        )
        assert hist.percentile(0.9) == reference.percentile(0.9)

    def test_reads_never_raise_while_writers_add_cells(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops")
        hist = registry.histogram("op.seconds")
        stop = threading.Event()
        errors: list[BaseException] = []

        def writer(thread: int) -> None:
            index = 0
            while not stop.is_set():
                index += 1
                counter.inc()
                hist.observe(index * 1e-6)
                registry.counter(f"dynamic.{thread}.{index % 50}").inc()
                if index % 4 == 0:
                    # Swapped-out cells make every writer insert a new one.
                    counter.reset()
                    hist.reset()

        def reader(_index: int) -> None:
            try:
                for round_ in range(3_000):
                    counter.value
                    hist.snapshot()
                    if round_ % 100 == 0:
                        registry.render_text()
                        registry.to_json()
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
            finally:
                stop.set()

        _run_threads(lambda index: reader(index) if index == 0 else writer(index), 9)
        assert errors == []

    def test_reset_keeps_handles_live_across_threads(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops")
        hist = registry.histogram("op.seconds")

        def writer(_thread: int) -> None:
            for _ in range(100):
                counter.inc()
                hist.observe(0.001)

        _run_threads(writer, 4)
        registry.reset()
        assert (counter.value, hist.count) == (0, 0)
        _run_threads(writer, 4)
        assert registry.counter("ops") is counter
        assert registry.snapshot()["counters"]["ops"] == 400
        assert registry.histogram("op.seconds").count == 400

    def test_bind_carries_over_values_written_by_many_threads(self):
        from repro.caching.stats import CacheStats

        stats = CacheStats()

        def writer(_thread: int) -> None:
            for _ in range(250):
                stats.record_hit()
                stats.record_eviction(2)

        _run_threads(writer, 4)
        registry = MetricsRegistry()
        stats.bind(registry, "cache.t")
        assert registry.counter("cache.t.hits").value == 1_000
        assert registry.counter("cache.t.evictions").value == 2_000
        stats.record_hit()
        assert stats.snapshot().hits == registry.counter("cache.t.hits").value == 1_001

    def test_short_lived_threads_reuse_cells(self):
        """A thread per connection must not grow a cell per connection: the
        OS reuses the idents of threads that have exited, and a reused
        ident adds to the existing cell."""
        counter = Counter()
        hist = Histogram()

        def once() -> None:
            counter.inc()
            hist.observe(1e-4)

        for _ in range(2_000):
            thread = threading.Thread(target=once)
            thread.start()
            thread.join()
        assert counter.value == hist.count == 2_000
        assert len(counter._cells) <= 8
        assert len(hist._shards) <= 8

    def test_trace_collector_counts_every_drop_under_contention(self):
        from repro.obs import TraceCollector
        from repro.obs.tracing import Span

        collector = TraceCollector(max_traces=4)
        registry = MetricsRegistry()
        collector.bind_dropped_counter(lambda: registry.counter("obs.traces.dropped"))

        def writer(_thread: int) -> None:
            for _ in range(self.WRITES):
                collector.add(Span("op"))

        _run_threads(writer, self.THREADS)
        assert len(collector) <= 4
        assert collector.dropped + len(collector) == self.THREADS * self.WRITES
        assert registry.counter("obs.traces.dropped").value == collector.dropped


class TestCacheStatsBinding:
    def test_bind_carries_values_and_shares_storage(self):
        from repro.caching.stats import CacheStats

        stats = CacheStats()
        stats.record_hit()
        stats.record_miss()
        registry = MetricsRegistry()
        stats.bind(registry, "cache.l1")

        # Pre-bind traffic carried over into the registry counters.
        assert registry.counter("cache.l1.hits").value == 1
        assert registry.counter("cache.l1.misses").value == 1

        # Post-bind traffic: one counter object, two views.
        stats.record_hit()
        assert registry.counter("cache.l1.hits").value == 2
        assert stats.snapshot().hits == 2

    def test_bind_is_idempotent(self):
        from repro.caching.stats import CacheStats

        stats = CacheStats()
        stats.record_put()
        registry = MetricsRegistry()
        stats.bind(registry, "cache.x")
        stats.bind(registry, "cache.x")  # must not double-count
        assert registry.counter("cache.x.puts").value == 1

    def test_inprocess_cache_binds_through_obs(self):
        from repro import InProcessCache, Observability

        obs = Observability()
        cache = InProcessCache(max_entries=4, obs=obs)
        cache.put("k", "v")
        cache.get("k")
        cache.get("absent")
        counters = obs.registry.snapshot()["counters"]
        assert counters["cache.inprocess.puts"] == 1
        assert counters["cache.inprocess.hits"] == 1
        assert counters["cache.inprocess.misses"] == 1
        # The cache's own stats and the registry are the same storage.
        assert cache.stats.snapshot().hits == 1


class TestProfilerRegistryRouting:
    def test_profiler_publishes_counters(self):
        from repro.caching.profiling import StackDistanceProfiler

        registry = MetricsRegistry()
        profiler = StackDistanceProfiler(registry=registry, name="trace1")
        profiler.record_trace(["a", "b", "a", "c", "a"])
        assert profiler.accesses == 5
        assert profiler.cold_misses == 3
        assert registry.counter("profiler.trace1.accesses").value == 5
        assert registry.counter("profiler.trace1.cold_misses").value == 3

    def test_profiler_standalone_without_registry(self):
        from repro.caching.profiling import StackDistanceProfiler

        profiler = StackDistanceProfiler()
        profiler.record_trace(["a", "a"])
        assert profiler.accesses == 2
        assert profiler.cold_misses == 1
        assert profiler.hit_rate(1) == pytest.approx(0.5)


class TestMonitorRegistryForwarding:
    def test_record_forwards_latency_and_bytes(self):
        from repro.udsm.monitoring import PerformanceMonitor

        registry = MetricsRegistry()
        monitor = PerformanceMonitor(registry=registry)
        monitor.record("cloud", "get", 0.002, size=128)
        monitor.record("cloud", "get", 0.004)  # size 0: no bytes counted

        hist = registry.histogram("store.cloud.get.seconds")
        assert hist.count == 2
        assert hist.sum == pytest.approx(0.006)
        assert registry.counter("store.cloud.get.bytes").value == 128
        # The monitor's own exact stats still work on top.
        assert monitor.stats_for("cloud", "get").count == 2

    def test_without_registry_nothing_is_forwarded(self):
        from repro.udsm.monitoring import PerformanceMonitor

        monitor = PerformanceMonitor()
        monitor.record("mem", "put", 0.001)
        assert monitor.stats_for("mem", "put").count == 1


class TestSnapshotDelta:
    def make_registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("hits").inc(10)
        registry.gauge("depth").set(5.0)
        registry.histogram("op.seconds").observe(0.002)
        return registry

    def test_no_previous_returns_current_as_interval(self):
        from repro.obs.metrics import snapshot_delta

        registry = self.make_registry()
        delta = snapshot_delta(None, registry.snapshot())
        assert delta["counters"]["hits"] == 10
        assert delta["histograms"]["op.seconds"]["count"] == 1

    def test_interval_increments(self):
        from repro.obs.metrics import snapshot_delta

        registry = self.make_registry()
        previous = registry.snapshot()
        registry.counter("hits").inc(7)
        registry.gauge("depth").set(3.0)
        registry.histogram("op.seconds").observe(0.05)
        registry.histogram("op.seconds").observe(0.05)
        delta = snapshot_delta(previous, registry.snapshot())
        assert delta["counters"]["hits"] == 7
        assert delta["gauges"]["depth"] == -2.0
        interval_hist = delta["histograms"]["op.seconds"]
        assert interval_hist["count"] == 2
        assert interval_hist["sum"] == pytest.approx(0.1)
        assert interval_hist["mean"] == pytest.approx(0.05)
        # interval buckets are cumulative over the interval only
        total = interval_hist["buckets"][-1][1]
        assert total == 2

    def test_counter_reset_clamps_to_current(self):
        from repro.obs.metrics import snapshot_delta

        previous = {"counters": {"hits": 1000}, "gauges": {}, "histograms": {}}
        current = {"counters": {"hits": 3}, "gauges": {}, "histograms": {}}
        delta = snapshot_delta(previous, current)
        assert delta["counters"]["hits"] == 3  # restart, not -997

    def test_accepts_scraped_json_bucket_bounds(self):
        from repro.obs.metrics import snapshot_delta

        registry = self.make_registry()
        scraped_previous = json.loads(json.dumps(registry.snapshot()))
        registry.histogram("op.seconds").observe(0.002)
        scraped_current = json.loads(json.dumps(registry.snapshot()))
        delta = snapshot_delta(scraped_previous, scraped_current)
        assert delta["histograms"]["op.seconds"]["count"] == 1

    def test_registry_delta_method_chains(self):
        registry = self.make_registry()
        previous = registry.snapshot()
        registry.counter("hits").inc(1)
        delta = registry.delta(previous)
        assert delta["counters"]["hits"] == 1
        delta_again = registry.delta(previous, current=registry.snapshot())
        assert delta_again["counters"]["hits"] == 1


class TestBucketPercentile:
    def test_nearest_rank_over_interval_buckets(self):
        from repro.obs.metrics import bucket_percentile

        buckets = [(0.001, 2), (0.01, 8), (0.1, 10), (math.inf, 10)]
        assert bucket_percentile(buckets, 0.5) == 0.01
        assert bucket_percentile(buckets, 0.99) == 0.1

    def test_overflow_lands_on_last_finite_bound(self):
        from repro.obs.metrics import bucket_percentile

        buckets = [(0.001, 0), (0.01, 0), (math.inf, 4)]
        assert bucket_percentile(buckets, 0.99) == 0.01

    def test_empty_and_validation(self):
        from repro.obs.metrics import bucket_percentile

        assert bucket_percentile([], 0.5) == 0.0
        assert bucket_percentile([(math.inf, 0)], 0.5) == 0.0
        with pytest.raises(ConfigurationError):
            bucket_percentile([(1.0, 1)], 1.5)
