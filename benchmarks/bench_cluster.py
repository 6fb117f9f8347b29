"""Cluster read throughput: does adding shards add capacity?

One figure (``results/BENCH_cluster.json``): aggregate client read throughput
against shard count (1, 2, 4) under a *fixed-service-time* capacity model.
Every shard hosts a :class:`~repro.kv.chaos.FlakyStore` (failure rate 0)
that holds each operation for ``SERVICE_TIME`` on the shard's serving
thread -- so a single shard has a hard capacity ceiling of about
``1 / SERVICE_TIME`` ops/s no matter how many clients pile on, exactly
like a backend bound by its own I/O.  Shards run on the reactor serving
engine (one reactor thread each), so their service windows overlap and the
cluster's aggregate ceiling grows with the shard count.

The driver is a pool of threads, each reading single keys through its own
:class:`~repro.cluster.ClusterStoreClient`: every GET is hash-routed
straight to its owning shard, so the measured scaling is the
*routing's* doing -- no proxy hop, no fan-out.  The keyspace is
owner-balanced by construction (see :func:`balanced_keys`): ring spread
has its own property tests, and letting it skew the load here would make
the busiest shard's queue the ceiling instead of the cluster's capacity.
The shape test pins near-linear scaling (>=1.6x at 2 shards, >=2.8x at 4)
rather than exact multiples: client-side GIL scheduling eats a little of
the ideal.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.cluster import ClusterCoordinator
from repro.kv import FlakyStore, InMemoryStore

FIGURE = "cluster"
SHARD_COUNTS = (1, 2, 4)
#: Fixed per-operation service time on each shard (the capacity model).
#: Chosen to dominate the client's own per-op cost (~0.4ms of wire + GIL
#: scheduling) so the measured scaling reflects shard capacity, not
#: client overhead.
SERVICE_TIME = 0.003
#: Concurrent reader threads (comfortably above 4 shards' capacity).
WORKERS = 16
#: Seconds of sustained reads measured per shard count.
WINDOW = 1.2
KEY_SPACE = 96


def balanced_keys(topology, count: int) -> list[str]:
    """*count* keys owned in equal shares by every member, interleaved.

    The ring's per-shard share is only statistically even (the economics
    tests bound it); this benchmark measures *capacity*, so the workload
    is balanced by construction -- otherwise the busiest shard's queue
    would cap the aggregate and the figure would conflate ring spread
    with serving capacity.
    """
    share = count // len(topology.members)
    per_owner: dict[str, list[str]] = {name: [] for name in topology.members}
    index = 0
    while any(len(owned) < share for owned in per_owner.values()):
        key = f"key-{index:04d}"
        owned = per_owner[topology.owner(key)]
        if len(owned) < share:
            owned.append(key)
        index += 1
    return [key for group in zip(*per_owner.values()) for key in group]


def measure(shard_count: int) -> float:
    """Aggregate read throughput (ops/s) of cluster clients over *shard_count*."""
    coordinator = ClusterCoordinator(engine="async")
    try:
        for index in range(shard_count):
            coordinator.add_shard(
                f"shard-{index}",
                FlakyStore(InMemoryStore(), failure_rate=0.0, latency=SERVICE_TIME),
            )
        keys = balanced_keys(coordinator.topology, KEY_SPACE)
        with coordinator.client() as seeder:
            seeder.put_many({key: b"x" * 64 for key in keys})
        # One client per worker: each holds its own connection to every
        # shard, so a request in flight never blocks another worker and the
        # only queueing is at the shards themselves -- the thing measured.
        clients = [coordinator.client() for _ in range(WORKERS)]
        try:
            stop = threading.Event()
            counts = [0] * WORKERS

            def reader(slot: int) -> None:
                client = clients[slot]
                position = slot
                while not stop.is_set():
                    client.get(keys[position % KEY_SPACE])
                    counts[slot] += 1
                    position += 1

            threads = [
                threading.Thread(target=reader, args=(slot,))
                for slot in range(WORKERS)
            ]
            begin = time.perf_counter()
            for thread in threads:
                thread.start()
            time.sleep(WINDOW)
            stop.set()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - begin
            assert all(client.redirects == 0 for client in clients)
            return sum(counts) / elapsed
        finally:
            for client in clients:
                client.close()
    finally:
        coordinator.stop()


@pytest.fixture(scope="module")
def sweeps():
    return {count: measure(count) for count in SHARD_COUNTS}


@pytest.mark.parametrize("shard_count", SHARD_COUNTS)
def test_cluster_curve(benchmark, collector, sweeps, shard_count):
    benchmark.group = "cluster"
    benchmark.pedantic(lambda: None, rounds=1)
    collector.record_value(
        FIGURE, "read", float(shard_count), sweeps[shard_count], unit="ops/s"
    )
    collector.note(
        FIGURE,
        f"Aggregate single-key GET throughput of {WORKERS} hash-routing "
        "cluster clients against shards holding every op for "
        f"{SERVICE_TIME * 1e3:.0f}ms (a fixed-service-time capacity model: "
        f"each shard tops out near {1 / SERVICE_TIME:.0f} ops/s).  x is "
        "the shard count; the keyspace is owner-balanced by construction "
        "so the figure isolates serving capacity from ring spread.  "
        "Scaling is the router's doing -- every GET goes straight to its "
        "owner; client-side thread scheduling keeps it just under linear.",
    )


def test_cluster_shape(benchmark, sweeps):
    """Near-linear read scaling: the acceptance floor for the subsystem."""
    benchmark.group = "cluster"
    benchmark.pedantic(lambda: None, rounds=1)
    base = sweeps[1]
    assert base > 1 / SERVICE_TIME * 0.5, (
        f"single shard implausibly slow: {base:.0f} ops/s against a "
        f"{1 / SERVICE_TIME:.0f} ops/s service ceiling"
    )
    assert base < 1 / SERVICE_TIME * 1.5, (
        f"single shard implausibly fast: {base:.0f} ops/s -- the "
        "fixed-service-time model is not binding, the benchmark is vacuous"
    )
    ratio2 = sweeps[2] / base
    ratio4 = sweeps[4] / base
    assert ratio2 >= 1.6, (
        f"2 shards gave only {ratio2:.2f}x the single-shard read "
        f"throughput ({sweeps[2]:.0f} vs {base:.0f} ops/s); need >= 1.6x"
    )
    assert ratio4 >= 2.8, (
        f"4 shards gave only {ratio4:.2f}x the single-shard read "
        f"throughput ({sweeps[4]:.0f} vs {base:.0f} ops/s); need >= 2.8x"
    )
