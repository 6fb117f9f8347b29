"""Extra evaluation: sustained mixed-workload throughput per store.

Goes beyond the paper's single-operation latency figures: a Zipf 90/10
read/write mix measures each store's *sustained* ops/s from one client,
with and without an in-process cache in front -- the end-to-end number an
application actually experiences.
"""

from __future__ import annotations

import pytest

from conftest import STORE_NAMES
from repro.caching import InProcessCache
from repro.core import EnhancedDataStoreClient
from repro.udsm.loadgen import LoadGenerator, LoadSpec

OPERATIONS = 300
KEY_SPACE = 50


def run(target) -> float:
    spec = LoadSpec(
        key_space=KEY_SPACE, read_fraction=0.9, value_size=1_024, key_prefix="thr"
    )
    generator = LoadGenerator(spec, seed=3)
    result = generator.run(target, plan=generator.plan(OPERATIONS))
    assert result.errors == 0
    return result.throughput


@pytest.mark.parametrize("store_name", STORE_NAMES)
def test_throughput_uncached(benchmark, bench_stores, collector, store_name):
    store = bench_stores[store_name]
    benchmark.group = "extra-throughput"
    throughput = benchmark.pedantic(run, args=(store,), rounds=1)
    store.clear()
    collector.record_value(
        "extra_throughput", f"{store_name}", 0, throughput, unit="ops_per_s"
    )
    collector.note(
        "extra_throughput",
        f"Sustained ops/s, Zipf 90/10 mix of {OPERATIONS} ops over "
        f"{KEY_SPACE} 1KB keys (x=0 uncached, x=1 with in-process cache).",
    )


@pytest.mark.parametrize("store_name", STORE_NAMES)
def test_throughput_cached(benchmark, bench_stores, collector, store_name):
    store = bench_stores[store_name]
    client = EnhancedDataStoreClient(store, cache=InProcessCache(), default_ttl=None)
    benchmark.group = "extra-throughput"
    throughput = benchmark.pedantic(run, args=(client,), rounds=1)
    store.clear()
    collector.record_value(
        "extra_throughput", f"{store_name}", 1, throughput, unit="ops_per_s"
    )


def test_caching_multiplies_cloud_throughput(benchmark, bench_stores):
    """Shape: an in-process cache must raise cloud-store throughput by >3x
    on a 90%-read Zipf mix."""
    store = bench_stores["cloud2"]
    uncached = run(store)
    store.clear()
    cached = run(EnhancedDataStoreClient(store, cache=InProcessCache()))
    store.clear()
    benchmark.group = "extra-throughput"
    benchmark.pedantic(lambda: None, rounds=1)
    assert cached > uncached * 3
