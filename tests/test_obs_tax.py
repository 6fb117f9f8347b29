"""What making observation cheaper must not change.

The fused stage span, the per-bundle metric handles and the one-increment
client counters are performance work; these tests pin the telemetry they
have to keep producing, per operation, exactly as before.
"""

from __future__ import annotations

import re
import sys
import threading

import pytest

from repro.core import EnhancedDataStoreClient
from repro.errors import KeyNotFoundError
from repro.kv import InMemoryStore
from repro.obs import Observability
from repro.obs.metrics import MetricsRegistry


class TestStageAgreesWithSpan:
    def test_observation_is_exactly_the_span_duration(self):
        obs = Observability()
        with obs.stage("op", metric="layer.op") as span:
            pass
        hist = obs.registry.histogram("layer.op.seconds")
        assert hist.count == 1
        assert hist.sum == span.duration  # exact, not approx: one subtraction

    def test_exception_path_records_duration_event_and_error(self):
        obs = Observability()
        with pytest.raises(ValueError, match="boom"):
            with obs.stage("op") as span:
                raise ValueError("boom")
        hist = obs.registry.histogram("op.seconds")
        assert hist.count == 1
        assert hist.sum == span.duration
        assert span.error == "ValueError"
        assert [event.name for event in span.events] == ["exception"]
        assert span.events[0].attributes == {"type": "ValueError", "message": "boom"}
        assert obs.collector.last() is span


class TestHandlesSurviveAndShare:
    def test_registry_reset_keeps_recording_into_the_same_series(self):
        obs = Observability()
        client = EnhancedDataStoreClient(InMemoryStore(), obs=obs)
        client.put("k", 1)
        client.get("k")
        hist = obs.registry.histogram("client.get.seconds")
        hits = obs.registry.counter("client.cache_hits")
        assert (hist.count, hits.value) == (1, 1)
        obs.registry.reset()
        assert (hist.count, hits.value) == (0, 0)
        client.get("k")
        client.get("k")
        assert obs.registry.histogram("client.get.seconds") is hist
        assert (hist.count, hits.value) == (2, 2)
        assert obs.registry.snapshot()["counters"]["cache.inprocess.hits"] == 2

    def test_two_bundles_on_one_registry_share_one_histogram(self):
        registry = MetricsRegistry()
        first, second = Observability(registry=registry), Observability(registry=registry)
        with first.stage("op"):
            pass
        with second.stage("op"):
            pass
        first.inc("events")
        second.inc("events", 2)
        assert registry.histogram("op.seconds").count == 2
        assert registry.counter("events").value == 3


class TestClientCounters:
    def test_two_clients_on_one_bundle_keep_separate_counters(self):
        obs = Observability()
        one = EnhancedDataStoreClient(InMemoryStore(), obs=obs)
        two = EnhancedDataStoreClient(InMemoryStore(), obs=obs)
        one.put("k", 1)
        two.put("k", 2)
        one.get("k")
        one.get("k")
        two.get("k")
        assert (one.counters.cache_hits, two.counters.cache_hits) == (2, 1)
        assert (one.counters.store_writes, two.counters.store_writes) == (1, 1)
        assert one.counters.hit_rate == 1.0
        # The registry series is the sum: one name, both clients.
        counters = obs.registry.snapshot()["counters"]
        assert counters["client.cache_hits"] == 3
        assert counters["client.store_writes"] == 2

    def test_a_field_never_counted_never_reaches_the_registry(self):
        obs = Observability()
        client = EnhancedDataStoreClient(InMemoryStore(), obs=obs)
        client.put("k", 1)
        assert client.counters.revalidations == 0
        names = obs.registry.snapshot()["counters"]
        assert "client.store_writes" in names
        assert "client.revalidations" not in names


class TestListenerSwap:
    def test_listener_added_after_traffic_sees_the_next_root_span(self):
        obs = Observability()
        with obs.stage("before"):
            pass
        early, late = [], []
        obs.collector.add_listener(early.append)
        with obs.stage("middle"):
            with obs.stage("child"):
                pass
        obs.collector.add_listener(late.append)
        with obs.stage("after"):
            pass
        assert [span.name for span in early] == ["middle", "after"]
        assert [span.name for span in late] == ["after"]


class TestLazySpanLists:
    def test_unused_lists_read_as_empty_and_stay_appendable(self):
        obs = Observability()
        with obs.span("leaf") as span:
            pass
        assert span.children == [] and span.events == []
        assert set(span.to_dict()) == {"name", "duration_ms"}
        assert list(span.walk()) == [span]
        span.events.append("sentinel")
        assert span.events == ["sentinel"]


class TestThreadedExactness:
    THREADS = 8
    GETS = 5_000

    def test_shared_client_counts_every_observed_get(self):
        obs = Observability()
        client = EnhancedDataStoreClient(InMemoryStore(), obs=obs)
        for index in range(self.THREADS):
            client.put(f"k{index}", index)
        roots_before = obs.collector.dropped + len(obs.collector)
        assert roots_before == self.THREADS
        wrong: list[object] = []

        def worker(index: int) -> None:
            key = f"k{index}"
            for _ in range(self.GETS):
                if client.get(key) != index:
                    wrong.append(key)

        threads = [
            threading.Thread(target=worker, args=(index,)) for index in range(self.THREADS)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong

        total = self.THREADS * self.GETS
        registry = obs.registry
        assert client.counters.cache_hits == total
        assert registry.counter("client.cache_hits").value == total
        assert registry.counter("cache.inprocess.hits").value == total
        assert registry.histogram("client.get.seconds").count == total
        assert registry.histogram("cache.inprocess.lookup.seconds").count == total
        collector = obs.collector
        assert collector.dropped + len(collector) == roots_before + total
        assert registry.counter("obs.traces.dropped").value == collector.dropped


EXPECTED_TRACES = """\
dscl.get  _ ms  [key='a']
  cache.lookup  _ ms  [freshness='miss']
  store.get  _ ms
  cache.put  _ ms

dscl.get  _ ms  [key='a']
  cache.lookup  _ ms  [freshness='fresh']

dscl.put  _ ms  [key='b']
  store.put  _ ms
  cache.put  _ ms

dscl.get  _ ms  [key='b']
  cache.lookup  _ ms  [freshness='fresh']

dscl.get  _ ms  [key='ghost']  !KeyNotFoundError
  @ exception +_ ms  [type='KeyNotFoundError' message='"key \\'ghost\\' not found in store \\'memory\\'"']
  cache.lookup  _ ms  [freshness='miss']
  store.get  _ ms  !KeyNotFoundError
    @ exception +_ ms  [type='KeyNotFoundError' message='"key \\'ghost\\' not found in store \\'memory\\'"']"""

EXPECTED_COUNTERS = {
    "cache.inprocess.deletes": 0,
    "cache.inprocess.evictions": 0,
    "cache.inprocess.expired_hits": 0,
    "cache.inprocess.hits": 2,
    "cache.inprocess.misses": 2,
    "cache.inprocess.puts": 2,
    "client.cache_hits": 2,
    "client.cache_misses": 2,
    "client.store_reads": 2,
    "client.store_writes": 1,
}

EXPECTED_HISTOGRAM_COUNTS = {
    "cache.inprocess.lookup.seconds": 4,
    "cache.inprocess.put.seconds": 2,
    "client.get.seconds": 4,
    "client.put.seconds": 1,
    "store.memory.get.seconds": 2,
    "store.memory.put.seconds": 1,
}


def test_scripted_sequence_telemetry_is_byte_identical():
    """Miss, hit, put, hit, absent key: the span trees (durations masked),
    every counter and every histogram count, as recorded before the
    observability-tax work (the expected text was produced at its parent
    commit)."""
    obs = Observability()
    store = InMemoryStore()
    store.put("a", 1)
    client = EnhancedDataStoreClient(store, obs=obs)
    assert client.get("a") == 1
    assert client.get("a") == 1
    client.put("b", 2)
    assert client.get("b") == 2
    with pytest.raises(KeyNotFoundError):
        client.get("ghost")

    assert re.sub(r"\d+\.\d{3} ms", "_ ms", obs.collector.render()) == EXPECTED_TRACES
    snapshot = obs.registry.snapshot()
    assert snapshot["counters"] == EXPECTED_COUNTERS
    assert {
        name: data["count"] for name, data in snapshot["histograms"].items()
    } == EXPECTED_HISTOGRAM_COUNTS
    assert snapshot["gauges"] == {}
