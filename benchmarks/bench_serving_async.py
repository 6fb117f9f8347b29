"""Serving-plane evaluation: threaded vs async engine under open-loop load.

The paper's figures measure one operation at a time; this module measures
the *server*.  A :class:`~repro.udsm.loadgen.LoadGenerator` schedule
offers Poisson traffic with Zipf key popularity at increasing rates, and
both serving engines replay **the same schedule** (same seed, shared
plan), so the only variable is the engine.  Latency runs from the
scheduled arrival to completion -- queueing delay under overload is part
of the number, which is what makes the throughput-vs-latency curve
honest (no coordinated omission).

Output: ``results/BENCH_serving_async.json`` with one series per engine;
each point carries p50/p95/p99 over the raw per-request latencies at that
offered load.  x is offered load in requests/second, not object size.
"""

from __future__ import annotations

import pytest

from repro.kv import RemoteKeyValueStore
from repro.net import AsyncCacheServer, CacheServer
from repro.udsm.loadgen import LoadGenerator, LoadSpec, RVConfig

FIGURE = "serving_async"
ENGINES = ("threaded", "async")
#: Offered load levels (requests/second).  The top level is chosen to
#: push queueing without drowning the host; the committed results come
#: from a 2-CPU host (``config.cpus`` in the results file).
LOAD_LEVELS = (300, 900, 1800)
DURATION = 1.0
WORKERS = 4
KEY_SPACE = 128
SEED = 97
#: Identity serializer keeps the measurement about the wire, not pickling.


def make_generator(rate: int) -> LoadGenerator:
    spec = LoadSpec(
        active_users=RVConfig(mean=float(rate), distribution="constant"),
        requests_per_user_per_s=RVConfig(mean=1.0, distribution="constant"),
        key_space=KEY_SPACE,
        zipf_s=1.1,
        read_fraction=0.9,
        value_size=512,
        key_prefix="srv",
    )
    return LoadGenerator(spec, seed=SEED + rate)


def make_server(engine: str):
    if engine == "async":
        return AsyncCacheServer(max_entries=KEY_SPACE * 4)
    return CacheServer(max_entries=KEY_SPACE * 4)


def drive(engine: str):
    """One full load sweep against a fresh server of *engine*."""
    server = make_server(engine)
    server.start()
    results = {}
    try:
        host, port = server.address
        targets = [
            RemoteKeyValueStore(host, port, name=f"{engine}-{i}")
            for i in range(WORKERS)
        ]
        try:
            for rate in LOAD_LEVELS:
                generator = make_generator(rate)
                plan = generator.schedule(DURATION)  # same seed both engines
                results[rate] = generator.run(
                    targets=targets,
                    duration=DURATION,
                    plan=plan,
                )
        finally:
            for target in targets:
                target.close()
    finally:
        server.stop()
    return results


@pytest.fixture(scope="module")
def sweeps():
    return {engine: drive(engine) for engine in ENGINES}


@pytest.mark.parametrize("engine", ENGINES)
def test_serving_curve(benchmark, collector, sweeps, engine):
    benchmark.group = "serving-async"
    benchmark.pedantic(lambda: None, rounds=1)
    collector.x_is_size[FIGURE] = False  # x is offered req/s, not bytes
    collector.open_loop.add(FIGURE)  # the schedule sets the rate: no 1e3 / mean "throughput"
    for rate, result in sweeps[engine].items():
        # raw per-request samples: the collector derives p50/p95/p99 per x
        for latency in result.latencies:
            collector.record(FIGURE, engine, float(rate), latency)
    collector.note(
        FIGURE,
        "Open-loop Poisson traffic (Zipf 1.1 keys, 90% reads, 512B values, "
        f"{WORKERS} client connections) vs offered load (req/s, x-axis); "
        "latency is scheduled-arrival to completion, so queueing counts. "
        "Identical schedules replayed against both engines.",
    )


def test_serving_shape(benchmark, sweeps):
    """Shape asserts that keep the figure honest."""
    benchmark.group = "serving-async"
    benchmark.pedantic(lambda: None, rounds=1)
    for engine in ENGINES:
        for rate, result in sweeps[engine].items():
            assert result.offered > 0, (engine, rate)
            # no error storm: the engine served the traffic it accepted
            assert result.errors == 0, (engine, rate, result.errors)
            assert result.completed == result.offered, (engine, rate)
            assert result.p99 >= result.p50 >= 0.0
    # both engines saw the same offered schedules (same seeds, same plans)
    for rate in LOAD_LEVELS:
        assert sweeps["threaded"][rate].offered == sweeps["async"][rate].offered
    # latency grows (or at least does not collapse) as offered load rises
    for engine in ENGINES:
        low = sweeps[engine][LOAD_LEVELS[0]]
        high = sweeps[engine][LOAD_LEVELS[-1]]
        assert high.mean_latency >= low.mean_latency * 0.2
