"""PerformanceMonitor: statistical correctness, detail window, persistence."""

from __future__ import annotations

import statistics

import pytest

from repro.errors import MonitoringError
from repro.kv import InMemoryStore
from repro.udsm.monitoring import MonitoredStore, OperationStats, PerformanceMonitor


class TestOperationStats:
    def test_welford_matches_statistics_module(self):
        samples = [0.001, 0.004, 0.002, 0.010, 0.0005, 0.003]
        stats = OperationStats()
        for sample in samples:
            stats.record(sample)
        assert stats.count == len(samples)
        assert stats.mean == pytest.approx(statistics.fmean(samples))
        assert stats.stdev == pytest.approx(statistics.stdev(samples))
        assert stats.minimum == min(samples)
        assert stats.maximum == max(samples)

    def test_single_sample_has_zero_stdev(self):
        stats = OperationStats()
        stats.record(0.5)
        assert stats.stdev == 0.0

    def test_recent_window_is_bounded(self):
        """Detail for recent requests, summary only for old -- paper design."""
        stats = OperationStats(recent_window=10)
        for i in range(100):
            stats.record(float(i))
        assert stats.count == 100                       # summary keeps all
        assert stats.recent() == [float(i) for i in range(90, 100)]

    def test_percentiles_over_recent_window(self):
        stats = OperationStats(recent_window=100)
        for i in range(1, 101):
            stats.record(float(i))
        assert stats.percentile(0.5) == 50.0
        assert stats.percentile(0.95) == 95.0
        assert stats.percentile(1.0) == 100.0
        assert stats.percentile(0.0) == 1.0

    def test_percentile_validation(self):
        with pytest.raises(MonitoringError):
            OperationStats().percentile(1.5)

    def test_empty_stats_are_zero(self):
        stats = OperationStats()
        assert stats.mean == 0.0 or stats.count == 0
        assert stats.percentile(0.5) == 0.0
        assert stats.minimum == 0.0 and stats.maximum == 0.0

    def test_byte_accounting(self):
        stats = OperationStats()
        stats.record(0.001, size=100)
        stats.record(0.002, size=250)
        assert stats.total_bytes == 350

    def test_serialization_roundtrip(self):
        stats = OperationStats()
        for value in (0.1, 0.2, 0.7):
            stats.record(value, size=10)
        restored = OperationStats.from_dict(stats.to_dict())
        assert restored.count == 3
        assert restored.mean == pytest.approx(stats.mean)
        assert restored.stdev == pytest.approx(stats.stdev)
        assert restored.total_bytes == 30

    def test_invalid_window(self):
        with pytest.raises(MonitoringError):
            OperationStats(recent_window=0)

    def test_recent_rate_counts_window(self):
        clock = {"now": 100.0}
        stats = OperationStats(timer=lambda: clock["now"])
        for _ in range(30):
            stats.record(0.001)
        clock["now"] = 130.0
        for _ in range(10):
            stats.record(0.001)
        # Only the 10 recent samples fall within the last 10 seconds.
        assert stats.recent_rate(10.0) == pytest.approx(1.0)
        # A 60s window covers everything recorded.
        assert stats.recent_rate(60.0) == pytest.approx(40 / 60)

    def test_recent_rate_validation(self):
        with pytest.raises(MonitoringError):
            OperationStats().recent_rate(0)

    def test_report_has_percentile_columns(self):
        monitor = PerformanceMonitor()
        monitor.record("s", "get", 0.001)
        report = monitor.report()
        assert "p50 ms" in report and "p99 ms" in report


class TestPerformanceMonitor:
    def test_records_partition_by_store_and_op(self):
        monitor = PerformanceMonitor()
        monitor.record("a", "get", 0.001)
        monitor.record("a", "put", 0.002)
        monitor.record("b", "get", 0.003)
        assert monitor.stats_for("a", "get").count == 1
        assert monitor.stats_for("b", "get").mean == pytest.approx(0.003)
        assert len(monitor.snapshot()) == 3

    def test_report_contains_rows(self):
        monitor = PerformanceMonitor()
        monitor.record("store-x", "get", 0.0042)
        report = monitor.report()
        assert "store-x" in report
        assert "4.200" in report

    def test_persist_and_restore(self):
        monitor = PerformanceMonitor()
        for i in range(10):
            monitor.record("s", "get", 0.001 * (i + 1))
        holder = InMemoryStore()
        monitor.persist(holder)

        fresh = PerformanceMonitor()
        fresh.restore(holder)
        assert fresh.stats_for("s", "get").count == 10
        assert fresh.stats_for("s", "get").mean == pytest.approx(
            monitor.stats_for("s", "get").mean
        )

    def test_restore_corrupt_data_rejected(self):
        holder = InMemoryStore()
        holder.put("udsm-performance", "not a dict")
        with pytest.raises(MonitoringError):
            PerformanceMonitor().restore(holder)


class TestMonitoredStore:
    def test_every_operation_is_timed(self):
        monitor = PerformanceMonitor()
        store = MonitoredStore(InMemoryStore(), monitor, name="m")
        store.put("k", b"value")
        store.get("k")
        store.contains("k")
        store.delete("k")
        snapshot = monitor.snapshot()
        for operation in ("put", "get", "contains", "delete"):
            assert monitor.stats_for("m", operation).count == 1, operation

    def test_monitoring_is_transparent(self):
        store = MonitoredStore(InMemoryStore(), PerformanceMonitor(), name="m")
        store.put("k", {"v": 1})
        assert store.get("k") == {"v": 1}
        _, version = store.get_with_version("k")
        assert store.check_version("k", version)

    def test_failed_operations_still_timed(self):
        monitor = PerformanceMonitor()
        store = MonitoredStore(InMemoryStore(), monitor, name="m")
        with pytest.raises(KeyError):
            store.get("absent")
        assert monitor.stats_for("m", "get").count == 1

    def test_put_records_payload_size(self):
        monitor = PerformanceMonitor()
        store = MonitoredStore(InMemoryStore(), monitor, name="m")
        store.put("k", b"x" * 500)
        assert monitor.stats_for("m", "put").total_bytes == 500

    def test_text_is_charged_its_utf8_bytes_not_its_characters(self):
        monitor = PerformanceMonitor()
        store = MonitoredStore(InMemoryStore(), monitor, name="m")
        store.put("k", "naïve €")  # 7 characters, 10 bytes on any wire or disk
        assert monitor.stats_for("m", "put").total_bytes == 10

    def test_revalidation_timed_separately(self):
        monitor = PerformanceMonitor()
        store = MonitoredStore(InMemoryStore(), monitor, name="m")
        store.put("k", b"v")
        _, version = store.get_with_version("k")
        store.get_if_modified("k", version)
        assert monitor.stats_for("m", "revalidate").count == 1

    def test_keyspace_scans_are_timed(self):
        monitor = PerformanceMonitor()
        store = MonitoredStore(InMemoryStore(), monitor, name="m")
        store.put("a:1", b"v")
        list(store.keys_with_prefix("a:"))
        store.size()
        assert monitor.stats_for("m", "keys").count == 1
        assert monitor.stats_for("m", "size").count == 1

    def test_slow_measurements_reach_the_event_log(self):
        from repro.obs import EventLog

        events = EventLog()
        monitor = PerformanceMonitor(events=events, slow_op_threshold=0.05)
        monitor.record("m", "get", 0.001)      # fast: not journalled
        monitor.record("m", "get", 0.25)       # slow: journalled
        records = events.slow_ops(5)
        assert len(records) == 1
        assert records[0]["op"] == "m.get"
        assert records[0]["source"] == "monitor"
        assert records[0]["seconds"] == 0.25
