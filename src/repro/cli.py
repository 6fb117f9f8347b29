"""Command-line interface: ``python -m repro <command>``.

The paper positions the workload generator as a tool users run to "easily
determine and compare the performance of different data stores"; this CLI
makes that a shell command, and also starts the bundled servers.

Commands
--------
``serve``
    Run a cache server (or serve a sqlite / LSM store) in the foreground.
``bench``
    Sweep read/write latency over object sizes for one store; prints a
    table and optionally writes gnuplot ``.dat`` files.
``cached-bench``
    The paper's cached-read experiment (hit-rate curves) for one store.
``codec-bench``
    Encryption/compression overhead sweeps (Figures 20/21).
``stats``
    Run a short enhanced-client workload with observability enabled and
    print the metrics registry (counters + latency histograms).
``trace``
    Run one put / cached get / invalidate / uncached get against an
    enhanced client and print the span tree each operation produced.
``serve-metrics``
    Drive a continuous enhanced-client workload and serve its telemetry
    over HTTP (``/metrics`` Prometheus text, ``/metrics.json``,
    ``/traces``, ``/events.json``) until interrupted.
``top``
    Live terminal dashboard: per-operation rates and p50/p99 latency,
    cache hit ratios, gauges, and the slow-operation tail -- either
    scraping a running exporter (``--url``) or self-driving a demo
    workload in-process (``--demo``).
``chaos``
    Scripted failure scenarios on a virtual clock (see docs/resilience.md):
    ``--scenario outage`` (default) walks retry, circuit breaker, deadline
    budget, and serve-stale through a backend outage; ``--scenario
    partition`` demos ``PartitionedStore`` -- symmetric unreachability,
    manual heal, and a seeded flap schedule.
``quorum``
    Quorum-replication plane: ``quorum status`` / ``quorum repair``
    compose an R+W>N group from repeated ``--member`` specs (status exits
    1 on divergence; repair runs a Merkle anti-entropy round), and
    ``quorum demo`` runs the scripted partition-heal walkthrough.
``cluster``
    Sharded-cluster plane (see docs/cluster.md): ``cluster status`` asks a
    live shard for its topology over the wire; ``cluster add-shard`` /
    ``cluster remove-shard`` run a live membership change over real
    sockets and verify zero lost keys and bounded key movement.
``lsm``
    Inspect (``lsm stats``) or compact (``lsm compact``) an on-disk LSM
    store directory (see docs/lsm.md).

Examples::

    python -m repro serve --port 7379
    python -m repro bench --store file --path /tmp/kv --sizes 100,10000
    python -m repro bench --store cloud1 --time-scale 0.1
    python -m repro cached-bench --store cloud2 --cache inprocess
    python -m repro codec-bench --codec gzip
    python -m repro stats --store memory --compress gzip --json
    python -m repro trace --store cloud1 --encrypt aes-gcm
    python -m repro serve-metrics --metrics-port 9100 --store cloud1
    python -m repro top --url http://127.0.0.1:9100
    python -m repro top --demo --iterations 3
    python -m repro chaos --seed 7
    python -m repro chaos --scenario partition
    python -m repro quorum demo
    python -m repro quorum status --member sql,path=a.db --member sql,path=b.db
    python -m repro quorum repair --member memory --member memory --r 1 --w 2
    python -m repro cluster status --seed 127.0.0.1:7400
    python -m repro cluster add-shard --keys 200
    python -m repro cluster remove-shard --member memory --member memory --member memory
    python -m repro serve --backend lsm --database /var/data/kv.lsm
    python -m repro lsm stats --path /var/data/kv.lsm
    python -m repro lsm compact --path /var/data/kv.lsm
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING, Any

from .errors import ConfigurationError, DataStoreError
from .net.server import add_serve_arguments, serve
from .udsm.report import format_table

# Backends, caches, codecs and the workload generator are imported by the
# sub-command that uses them: building the parser (``--help``, ``serve``,
# ``top``, ``lsm``) must not load sqlite3 or ``cryptography``.
if TYPE_CHECKING:
    from .core.enhanced import EnhancedDataStoreClient
    from .kv.interface import KeyValueStore

__all__ = ["main"]

DEFAULT_SIZES = "1,100,10000,1000000"


# ----------------------------------------------------------------------
# Store construction from CLI options
# ----------------------------------------------------------------------
def build_store(options: argparse.Namespace) -> KeyValueStore:
    """Instantiate the store selected by ``--store`` and its options."""
    kind = options.store
    if kind == "memory":
        from .kv.memory import InMemoryStore

        return InMemoryStore()
    if kind == "file":
        if not options.path:
            raise DataStoreError("--store file requires --path")
        from .kv.filesystem import FileSystemStore

        return FileSystemStore(options.path)
    if kind == "sql":
        from .kv.sqlstore import SQLStore

        return SQLStore(options.path or ":memory:")
    if kind == "lsm":
        if not options.path:
            raise DataStoreError("--store lsm requires --path")
        from .lsm.store import LSMStore

        return LSMStore(options.path)
    if kind in ("cloud1", "cloud2"):
        from .kv.cloudsim import CLOUD_STORE_1, CLOUD_STORE_2, SimulatedCloudStore

        profile = CLOUD_STORE_1 if kind == "cloud1" else CLOUD_STORE_2
        return SimulatedCloudStore(profile, time_scale=options.time_scale)
    if kind == "redis":
        if not options.port:
            raise DataStoreError("--store redis requires --port")
        from .kv.remote import RemoteKeyValueStore

        return RemoteKeyValueStore(options.host, options.port)
    raise DataStoreError(f"unknown store kind {kind!r}")


def parse_store_spec(spec: str) -> KeyValueStore:
    """Build a store from a compact spec: ``kind[,option=value...]``.

    Examples: ``memory`` -- ``sql,path=app.db`` -- ``file,path=/var/data``
    -- ``lsm,path=/var/data/kv.lsm`` -- ``redis,host=127.0.0.1,port=7379``
    -- ``cloud1,time_scale=0.1``.
    """
    kind, _sep, rest = spec.partition(",")
    options: dict[str, str] = {}
    for part in filter(None, rest.split(",")):
        name, sep, value = part.partition("=")
        if not sep:
            raise DataStoreError(f"bad store option {part!r} (expected name=value)")
        options[name] = value
    namespace = argparse.Namespace(
        store=kind,
        path=options.get("path"),
        host=options.get("host", "127.0.0.1"),
        port=int(options.get("port", 0)),
        time_scale=float(options.get("time_scale", 0.1)),
    )
    return build_store(namespace)


def parse_sizes(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(part) for part in text.split(",") if part)
    except ValueError as exc:
        raise DataStoreError(f"invalid --sizes {text!r}: {exc}") from exc
    if not sizes:
        raise DataStoreError("--sizes must name at least one size")
    return sizes


def _add_store_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        choices=("memory", "file", "sql", "lsm", "cloud1", "cloud2", "redis"),
        default="memory",
        help="data store to benchmark",
    )
    parser.add_argument("--path", default=None,
                        help="directory (file/lsm) / db path (sql)")
    parser.add_argument("--host", default="127.0.0.1", help="redis-store host")
    parser.add_argument("--port", type=int, default=0, help="redis-store port")
    parser.add_argument(
        "--time-scale", type=float, default=0.1,
        help="WAN scale for cloud stores (default 0.1 = one tenth latency)",
    )
    parser.add_argument("--sizes", default=DEFAULT_SIZES, help="comma-separated bytes")
    parser.add_argument("--repeats", type=int, default=4, help="runs per data point")
    parser.add_argument("--output", default=None, help="directory for .dat files")


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def cmd_serve(options: argparse.Namespace) -> int:
    serve(options)
    return 0


def cmd_bench(options: argparse.Namespace) -> int:
    from .udsm.workload import WorkloadGenerator

    store = build_store(options)
    generator = WorkloadGenerator(sizes=parse_sizes(options.sizes), repeats=options.repeats)
    print(f"benchmarking store {store.name!r} "
          f"(sizes {options.sizes}, {options.repeats} repeats)...")
    results = generator.compare_stores([store])[store.name]
    rows = []
    for point_write, point_read in zip(results["write"].points, results["read"].points):
        rows.append(
            (
                point_write.size,
                f"{point_read.mean * 1e3:.4g}",
                f"{point_read.stdev * 1e3:.3g}",
                f"{point_write.mean * 1e3:.4g}",
                f"{point_write.stdev * 1e3:.3g}",
            )
        )
    print(format_table(
        ("size B", "read ms", "±", "write ms", "±"), rows
    ))
    if options.output:
        out = Path(options.output)
        out.mkdir(parents=True, exist_ok=True)
        results["read"].write_dat(out / f"{store.name}_read.dat")
        results["write"].write_dat(out / f"{store.name}_write.dat")
        print(f"wrote {out}/{store.name}_read.dat and _write.dat")
    store.close()
    return 0


def cmd_cached_bench(options: argparse.Namespace) -> int:
    from .caching.inprocess import InProcessCache
    from .caching.remote import RemoteProcessCache
    from .udsm.workload import CachedReadSpec, WorkloadGenerator

    store = build_store(options)
    if options.cache == "remote":
        if not options.cache_port:
            raise DataStoreError("--cache remote requires --cache-port")
        cache = RemoteProcessCache(options.cache_host, options.cache_port, namespace="cli")
    else:
        cache = InProcessCache()
    generator = WorkloadGenerator(sizes=parse_sizes(options.sizes), repeats=options.repeats)
    hit_rates = tuple(float(r) / 100 for r in options.hit_rates.split(","))
    print(f"cached-read curve for {store.name!r} with {options.cache} cache...")
    curve = generator.measure_cached_reads(store, cache, CachedReadSpec(hit_rates=hit_rates))
    curves = curve.curves
    rows = []
    for index, point in enumerate(curve.no_cache.points):
        rows.append(
            [point.size] + [f"{curves[rate][index][1] * 1e3:.4g}" for rate in hit_rates]
        )
    print(format_table(
        ["size B"] + [f"{int(rate * 100)}% ms" for rate in hit_rates], rows
    ))
    if options.output:
        out = Path(options.output)
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"{store.name}_{options.cache}_curve.dat"
        curve.write_dat(path)
        print(f"wrote {path}")
    cache.close()
    store.close()
    return 0


#: codec name -> (defining module, class); imported when a command asks for it.
_CODECS = {
    "gzip": (".compression.codecs", "GzipCompressor"),
    "zlib": (".compression.codecs", "ZlibCompressor"),
    "lzma": (".compression.codecs", "LzmaCompressor"),
    "aes-gcm": (".security.aes", "AesGcmEncryptor"),
    "aes-cbc": (".security.aes", "AesCbcEncryptor"),
}


def _build_codec(name: str) -> Any:
    """Instantiate the compressor or (freshly keyed) encryptor called *name*."""
    module, class_name = _CODECS[name]
    codec = getattr(import_module(module, __package__), class_name)
    if module == ".security.aes":
        from .security.keys import generate_key

        return codec(generate_key())
    return codec()


def cmd_codec_bench(options: argparse.Namespace) -> int:
    from .udsm.workload import WorkloadGenerator

    codec = _build_codec(options.codec)
    generator = WorkloadGenerator(sizes=parse_sizes(options.sizes), repeats=options.repeats)
    if options.codec.startswith("aes"):
        timing = generator.measure_encryptor(codec)
        forward, backward = "encrypt", "decrypt"
    else:
        timing = generator.measure_compressor(codec)
        forward, backward = "compress", "decompress"
    rows = []
    for enc_point, dec_point, (in_size, out_size) in zip(
        timing.encode.points, timing.decode.points, timing.output_sizes
    ):
        rows.append(
            (
                enc_point.size,
                f"{enc_point.mean * 1e3:.4g}",
                f"{dec_point.mean * 1e3:.4g}",
                f"{out_size / in_size:.3f}" if in_size else "-",
            )
        )
    print(format_table(
        ("size B", f"{forward} ms", f"{backward} ms", "out/in"), rows
    ))
    if options.output:
        out = Path(options.output)
        out.mkdir(parents=True, exist_ok=True)
        timing.encode.write_dat(out / f"{options.codec}_{forward}.dat")
        timing.decode.write_dat(out / f"{options.codec}_{backward}.dat")
        print(f"wrote {out}/{options.codec}_{forward}.dat and _{backward}.dat")
    return 0


def cmd_mixed_bench(options: argparse.Namespace) -> int:
    from .caching.inprocess import InProcessCache
    from .core.enhanced import EnhancedDataStoreClient
    from .udsm.loadgen import LoadGenerator, LoadSpec

    store = build_store(options)
    generator = LoadGenerator(
        LoadSpec(
            key_space=options.key_space,
            read_fraction=options.read_fraction,
            value_size=options.value_size,
        )
    )
    target: Any = store
    if options.cached:
        target = EnhancedDataStoreClient(store, cache=InProcessCache())
    print(
        f"mixed workload on {store.name!r}: {options.operations} ops, "
        f"{options.read_fraction:.0%} reads, Zipf over {options.key_space} keys..."
    )
    result = generator.run(target, plan=generator.plan(options.operations))
    rows = [
        ("throughput (ops/s)", f"{result.throughput:.0f}"),
        ("mean read (ms)", f"{result.mean_read_latency * 1e3:.4g}"),
        ("mean write (ms)", f"{result.mean_write_latency * 1e3:.4g}"),
        ("achieved read fraction", f"{result.read_fraction:.2f}"),
        ("errors", str(result.errors)),
    ]
    if options.cached:
        rows.append(("cache hit rate", f"{target.counters.hit_rate:.2f}"))
    print(format_table(("metric", "value"), rows))
    store.close()
    if result.errors:
        # A store that fails mid-run is an error, not a slower benchmark.
        print(
            f"error: {result.errors} of {result.offered} operations failed",
            file=sys.stderr,
        )
        return 2
    return 0


def _build_observed_client(
    options: argparse.Namespace,
) -> "tuple[Any, EnhancedDataStoreClient]":
    """Store + observability-enabled enhanced client for stats/trace."""
    from .caching.inprocess import InProcessCache
    from .core.enhanced import EnhancedDataStoreClient
    from .obs import EventLog, Observability

    store = build_store(options)
    slow_ms = getattr(options, "slow_ms", None)
    if slow_ms is not None:
        obs = Observability(
            events=EventLog(path=getattr(options, "event_log", None)),
            slow_op_threshold=slow_ms / 1e3,
        )
    else:
        obs = Observability()
    compressor = _build_codec(options.compress) if options.compress else None
    encryptor = _build_codec(options.encrypt) if options.encrypt else None
    client = EnhancedDataStoreClient(
        store,
        cache=InProcessCache(),
        compressor=compressor,
        encryptor=encryptor,
        obs=obs,
    )
    return store, client


def cmd_stats(options: argparse.Namespace) -> int:
    if options.keys < 1:
        raise ConfigurationError("--keys must be at least 1")
    store, client = _build_observed_client(options)
    obs = client.obs
    payload = {"value": list(range(64)), "text": "x" * options.value_size}
    for index in range(options.keys):
        client.put(f"stats-key-{index}", payload)
    for _ in range(options.reads):
        for index in range(options.keys):
            client.get(f"stats-key-{index}")
    client.invalidate("stats-key-0")
    client.get("stats-key-0")  # one cache miss + store read
    if options.json:
        print(obs.registry.to_json())
    else:
        print(obs.registry.render_text())
    client.close()
    return 0


def cmd_trace(options: argparse.Namespace) -> int:
    store, client = _build_observed_client(options)
    obs = client.obs
    operations = (
        ("put", lambda: client.put("trace-key", {"payload": "y" * options.value_size})),
        ("get (cache hit)", lambda: client.get("trace-key")),
        ("invalidate", lambda: client.invalidate("trace-key")),
        ("get (cache miss)", lambda: client.get("trace-key")),
    )
    for title, operation in operations:
        obs.collector.clear()
        operation()
        print(f"--- {title} ---")
        print(obs.collector.render())
        print()
    client.close()
    return 0


def _drive_workload_step(client: EnhancedDataStoreClient, step: int, *, keys: int,
                         value_size: int) -> None:
    """One slice of a steady mixed workload (puts, hits, misses)."""
    key = f"metrics-key-{step % keys}"
    if step < keys or step % (keys * 4) == step % keys:
        client.put(key, {"step": step, "payload": "x" * value_size})
    client.get(key)
    if step % (keys * 2) == step % keys:
        client.invalidate(key)
        client.get(key)  # forced cache miss -> store read


def cmd_serve_metrics(options: argparse.Namespace) -> int:
    import time as time_module

    from .obs.anomaly import AnomalyEngine, default_rules
    from .obs.export import start_http_exporter

    store, client = _build_observed_client(options)
    obs = client.obs
    engine = AnomalyEngine(obs, rules=default_rules())
    engine.start()
    handle = start_http_exporter(
        obs, host=options.metrics_host, port=options.metrics_port, anomaly=engine
    )
    print(f"METRICS {handle.host} {handle.port}", flush=True)
    print(f"serving telemetry at {handle.url} "
          f"(/metrics /metrics.json /traces /events.json /anomalies.json); "
          f"ctrl-c to stop", flush=True)
    deadline = None if options.duration is None else time_module.monotonic() + options.duration
    step = 0
    try:
        while deadline is None or time_module.monotonic() < deadline:
            _drive_workload_step(client, step, keys=options.keys,
                                 value_size=options.value_size)
            step += 1
            if options.op_interval:
                time_module.sleep(options.op_interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        engine.stop()
        handle.stop()
        client.close()
    return 0


def cmd_top(options: argparse.Namespace) -> int:
    import time as time_module

    from .obs.top import (
        CLEAR_SCREEN,
        Dashboard,
        scrape_anomalies_json,
        scrape_events_json,
        scrape_metrics_json,
    )

    if not options.url and not options.demo:
        raise ConfigurationError("repro top needs --url <exporter> or --demo")

    client = None
    obs = None
    engine = None
    if options.demo:
        from .obs.anomaly import AnomalyEngine, default_rules

        if options.slow_ms is None:
            options.slow_ms = 0.0  # demo: journal every op as an exemplar source
        _store, client = _build_observed_client(options)
        obs = client.obs
        engine = AnomalyEngine(obs, rules=default_rules())

    dashboard = Dashboard()
    iteration = 0
    try:
        while options.iterations <= 0 or iteration < options.iterations:
            if client is not None:
                for step in range(options.demo_ops):
                    _drive_workload_step(
                        client, iteration * options.demo_ops + step,
                        keys=options.keys, value_size=options.value_size,
                    )
            if options.url:
                snapshot = scrape_metrics_json(options.url)
                slow_ops = scrape_events_json(options.url, count=options.slow_tail)
                anomalies = scrape_anomalies_json(options.url)
            else:
                engine.poll()
                snapshot = obs.registry.snapshot()
                slow_ops = obs.events.slow_ops(options.slow_tail) if obs.events else []
                anomalies = engine.status()
            frame = dashboard.render(snapshot, slow_ops, anomalies=anomalies)
            if options.no_clear:
                print(frame, flush=True)
            else:  # pragma: no cover - interactive only
                print(CLEAR_SCREEN + frame, flush=True)
            iteration += 1
            if (options.iterations <= 0 or iteration < options.iterations) and options.interval:
                time_module.sleep(options.interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    except BrokenPipeError:
        # Reader went away (e.g. `repro top | head`): silence the final
        # interpreter-exit flush of the dead stdout and leave quietly.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    finally:
        if client is not None:
            client.close()
    return 0


def cmd_migrate(options: argparse.Namespace) -> int:
    from .tools.migration import copy_store, verify_stores

    source = parse_store_spec(options.source)
    destination = parse_store_spec(options.dest)
    print(f"migrating {source.name!r} -> {destination.name!r}...")
    report = copy_store(
        source,
        destination,
        batch_size=options.batch_size,
        overwrite=not options.no_overwrite,
    )
    print(report)
    if options.verify:
        differing = verify_stores(source, destination)
        if differing:
            print(f"VERIFY FAILED: {len(differing)} keys differ "
                  f"(first: {differing[:5]})")
            return 1
        print("verify: stores agree")
    source.close()
    destination.close()
    return 0


def cmd_chaos(options: argparse.Namespace) -> int:
    """Scripted failure scenario driven through the fault-tolerance plane.

    ``--scenario outage`` (default) composes ``serve-stale client ->
    RetryingStore -> CircuitBreakerStore -> FlakyStore -> store`` (see
    docs/resilience.md) and walks it through seed, outage, degradation,
    and recovery on a virtual clock, narrating which layer absorbed each
    failure.  ``--scenario partition`` demos :class:`PartitionedStore`:
    symmetric unreachability (reads *and* writes refused), manual heal,
    and a seeded flap schedule evaluated on the virtual clock.
    """
    if options.scenario == "partition":
        return _chaos_partition(options)
    import time as _time

    from .caching.inprocess import InProcessCache
    from .core.enhanced import EnhancedDataStoreClient
    from .kv.chaos import FlakyStore
    from .kv.circuit import CircuitBreakerStore
    from .kv.deadline import deadline_scope
    from .kv.resilience import RetryingStore
    from .net.latency import VirtualClock
    from .obs import EventLog, Observability

    obs = Observability(events=EventLog())
    vc = VirtualClock()

    backend = build_store(options)
    # 60 ms of virtual latency per backend call: failing attempts consume
    # wall-clock budget, which is what makes the deadline step meaningful.
    flaky = FlakyStore(
        backend, failure_rate=0.0, latency=0.06, sleep=vc.advance, seed=options.seed
    )
    breaker = CircuitBreakerStore(
        flaky,
        name="chaos",
        failure_threshold=6,
        recovery_timeout=30.0,
        clock=vc.time,
        obs=obs,
    )
    retry = RetryingStore(
        breaker, max_attempts=3, base_delay=0.02, sleep=vc.advance,
        seed=options.seed, obs=obs,
    )
    pending: list = []
    client = EnhancedDataStoreClient(
        retry,
        cache=InProcessCache(),
        obs=obs,
        default_ttl=0.02,
        serve_stale=True,
        max_stale=3600.0,
        stale_revalidator=pending.append,
    )

    def degraded_read(key: str, note: str) -> None:
        value = client.get(key)
        (record,) = obs.events.tail(1, kind="stale_served")
        print(f"  get {key!r} -> {value!r}")
        print(f"      stale serve absorbed {record['error']} ({note})")

    print(f"stack: serve-stale client -> {retry.name}")
    keys = [f"user-{index}" for index in range(3)]
    for index, key in enumerate(keys):
        client.put(key, {"name": key, "revision": index})
    for key in keys:
        client.get(key)
    print(f"seeded {len(keys)} keys; warm reads hit the cache "
          f"(hits={client.counters.cache_hits})")

    print("\n-- outage: every backend call now fails; cached entries expire --")
    flaky.fail_next(10_000)
    _time.sleep(0.03)  # let the 20 ms TTL lapse so reads must revalidate
    degraded_read("user-0", "retry ladder exhausted")
    with deadline_scope(0.1, clock=vc.time):
        degraded_read("user-1", "100 ms budget spent mid-ladder")
    degraded_read("user-2", "burst tripped the breaker")
    print(f"  circuit state: {breaker.breaker.state.value}")
    degraded_read("user-0", "shed instantly, backend untouched")

    print("\n-- recovery: backend healthy again, 30 virtual seconds pass --")
    flaky.fail_next(0)
    vc.advance(30.0)
    for revalidate in pending:
        revalidate()
    print(f"  {len(pending)} queued revalidations drained as recovery probes; "
          f"circuit state: {breaker.breaker.state.value}")
    value = client.get("user-0")
    print(f"  get 'user-0' -> {value!r} (fresh from the refreshed cache)")

    print("\nscoreboard:")
    for metric in (
        "kv.retry.retries",
        "kv.deadline.expired",
        "kv.circuit.opened",
        "kv.circuit.rejected",
        "kv.circuit.closed",
        "cache.stale_served",
    ):
        print(f"  {metric:<22} {obs.registry.counter(metric).value}")
    kinds = [record["kind"] for record in obs.events.tail()]
    print("  journal: " + " -> ".join(kinds))
    client.close()
    return 0


def _chaos_partition(options: argparse.Namespace) -> int:
    """Network-partition scenario: sever, refuse symmetrically, flap, heal."""
    from .errors import StoreUnavailableError
    from .kv.chaos import PartitionedStore
    from .kv.resilience import RetryingStore
    from .net.latency import VirtualClock
    from .obs import EventLog, Observability

    obs = Observability(events=EventLog())
    vc = VirtualClock()

    backend = build_store(options)
    part = PartitionedStore(backend, clock=vc.time, obs=obs)
    retry = RetryingStore(
        part, max_attempts=3, base_delay=0.02, sleep=vc.advance,
        seed=options.seed, obs=obs,
    )

    retry.put("user-0", {"name": "user-0"})
    print(f"stack: {retry.name}")
    print(f"healthy: get 'user-0' -> {retry.get('user-0')!r}")

    print("\n-- manual partition: reads AND writes are refused symmetrically --")
    part.partition()
    for label, op in (
        ("get 'user-0'", lambda: retry.get("user-0")),
        ("put 'user-1'", lambda: retry.put("user-1", {"name": "user-1"})),
    ):
        try:
            op()
        except StoreUnavailableError as exc:
            print(f"  {label} -> {type(exc).__name__} "
                  f"(retry ladder exhausted: {exc})")
    part.heal()
    print(f"healed: get 'user-0' -> {retry.get('user-0')!r}")

    print("\n-- seeded flap schedule on the virtual clock (zero real sleeps) --")
    windows = part.schedule_flaps(
        seed=options.seed, flaps=3, mean_healthy=10.0, mean_partitioned=4.0,
    )
    for start, end in windows:
        print(f"  partition window {start:8.2f}s .. {end:8.2f}s")
    probes = served = refused = 0
    while vc.time() < windows[-1][1] + 1.0:
        probes += 1
        try:
            part.get("user-0")
            served += 1
        except StoreUnavailableError:
            refused += 1
        vc.advance(0.5)
    print(f"  {probes} probes over {vc.time():.1f} virtual seconds: "
          f"{served} served, {refused} refused")

    print("\nscoreboard:")
    for metric in (
        "kv.chaos.partitions",
        "kv.chaos.heals",
        "kv.chaos.unavailable",
        "kv.retry.retries",
        "kv.retry.exhausted",
    ):
        print(f"  {metric:<22} {obs.registry.counter(metric).value}")
    backend.close()
    return 0


def cmd_quorum(options: argparse.Namespace) -> int:
    """Quorum-replication plane: group status, Merkle repair, or the demo.

    ``status`` and ``repair`` compose a group from repeated ``--member``
    specs (attaching to whatever the members already hold via a one-time
    tree rebuild); ``demo`` runs the scripted partition-heal walkthrough
    over in-memory members.  ``status`` exits 1 when the members have
    diverged, which makes it usable as a health probe.
    """
    from .kv.quorum import QuorumReplicatedStore

    if options.action == "demo":
        return _quorum_demo(options)
    specs = options.member or []
    if len(specs) < 2:
        raise DataStoreError(
            f"quorum {options.action} needs at least two --member specs"
        )
    members = [parse_store_spec(spec) for spec in specs]
    group = QuorumReplicatedStore(
        members,
        read_quorum=options.r,
        write_quorum=options.w,
        node_id=options.node_id,
        merkle_depth=options.depth,
    )
    try:
        # Attaching to pre-existing stores: one full scan seeds the trees,
        # then every comparison below is incremental.
        group.rebuild_trees()
        if options.action == "repair":
            report = group.anti_entropy_round()
            print(report)
        status = group.status()
        rows = [
            (entry["name"], str(entry["tracked_keys"]), entry["merkle_root"][:16])
            for entry in status["members"]
        ]
        print(format_table(("member", "tracked keys", "merkle root (prefix)"), rows))
        verdict = "in sync" if status["in_sync"] else "DIVERGED"
        print(f"group: N={status['n']} R={status['r']} W={status['w']} -- {verdict}")
        return 0 if status["in_sync"] else 1
    finally:
        group.close()


def _quorum_demo(options: argparse.Namespace) -> int:
    """Scripted quorum walkthrough: degrade, fail fast, heal, converge."""
    from .errors import QuorumWriteError
    from .kv.chaos import PartitionedStore
    from .kv.memory import InMemoryStore
    from .kv.quorum import QuorumReplicatedStore
    from .obs import EventLog, Observability

    obs = Observability(events=EventLog())
    members = [
        PartitionedStore(InMemoryStore(), name=f"member-{index}", obs=obs)
        for index in range(3)
    ]
    group = QuorumReplicatedStore(
        members, read_quorum=2, write_quorum=2, name="demo",
        node_id="demo-node", obs=obs,
    )
    print("group: N=3 R=2 W=2 over in-memory members")
    for index in range(3):
        group.put(f"user-{index}", {"revision": 0})
    group.drain()
    print(f"seeded 3 keys; members in sync: {group.status()['in_sync']}")

    print("\n-- partition member-2; quorum holds at W=2, writes run degraded --")
    members[2].partition()
    for index in range(3):
        group.put(f"user-{index}", {"revision": 1})
    group.drain()
    print(f"  3 writes acknowledged with one member down "
          f"(degraded_ops={group.degraded_ops}, "
          f"sloppy failures={group.write_partial_failures})")
    value = group.get("user-0")
    group.drain()
    print(f"  get 'user-0' -> {value!r} (reads survive at R=2)")

    print("\n-- partition member-1 too: below W, writes fail fast --")
    members[1].partition()
    try:
        group.put("user-0", {"revision": 2})
    except QuorumWriteError as exc:
        print(f"  put -> {type(exc).__name__}: {exc}")
    group.drain()

    print("\n-- heal both members, run one Merkle anti-entropy round --")
    members[1].heal()
    members[2].heal()
    report = group.anti_entropy_round()
    print(f"  {report}")
    status = group.status()
    print(f"  members in sync: {status['in_sync']}; "
          f"get 'user-0' -> {group.get('user-0')!r}")
    print("  (the failed-fast write landed on one member before the quorum "
          "was lost; anti-entropy propagates that surviving copy -- partial "
          "writes are sloppy, never rolled back)")
    group.drain()

    print("\nscoreboard:")
    for metric in (
        "kv.quorum.writes",
        "kv.quorum.degraded",
        "kv.quorum.failed_fast",
        "kv.quorum.read_repairs",
        "kv.antientropy.rounds",
        "kv.antientropy.keys_repaired",
    ):
        print(f"  {metric:<28} {obs.registry.counter(metric).value}")
    group.close()
    return 0


def cmd_cluster(options: argparse.Namespace) -> int:
    """Sharded-cluster plane: remote topology status or a live membership change.

    ``status`` asks any shard (``--seed host:port``) for its topology over
    the wire (the ``TOPOLOGY`` command) and prints the shard map with per-
    shard key counts.  ``add-shard`` / ``remove-shard`` boot an in-process
    cluster from ``--member`` specs (in-memory by default), seed it, then
    perform the membership change while an L3 client keeps reading --
    printing the rebalance economics (~K/N keys moved) and verifying zero
    lost keys.
    """
    if options.action == "status":
        return _cluster_status(options)
    return _cluster_membership_demo(options)


def _cluster_status(options: argparse.Namespace) -> int:
    """Fetch the topology from a live shard and print the shard map."""
    from .cluster.topology import ClusterTopology
    from .net.client import CacheClient
    from .net.protocol import WireError

    seeds = options.seed or []
    if not seeds:
        raise DataStoreError("cluster status needs at least one --seed host:port")
    payload = None
    last_error: Exception | None = None
    for seed in seeds:
        host, _sep, port = seed.rpartition(":")
        if not _sep:
            raise DataStoreError(f"bad --seed {seed!r} (expected host:port)")
        client = CacheClient(host, int(port))
        try:
            reply = client.call(["TOPOLOGY"])
        except DataStoreError as exc:
            last_error = exc
            continue
        finally:
            client.close()
        if isinstance(reply, WireError):
            print(f"error: {seed} is not in a cluster ({reply})",
                  file=sys.stderr)
            return 1
        payload = reply
        break
    if payload is None:
        print(f"error: no seed reachable ({last_error})", file=sys.stderr)
        return 1
    topology = ClusterTopology.decode(payload)
    rows = []
    total = 0
    for name in topology.members:
        host, port = topology.address(name)
        keys = "?"
        member = CacheClient(host, port)
        try:
            keys = str(member.dbsize())
            total += int(keys)
        except DataStoreError:
            keys = "unreachable"
        finally:
            member.close()
        rows.append((name, f"{host}:{port}", keys))
    print(format_table(("shard", "address", "keys"), rows))
    print(f"cluster: epoch={topology.epoch} shards={len(topology)} "
          f"replicas={topology.replicas} total_keys={total}")
    return 0


def _cluster_membership_demo(options: argparse.Namespace) -> int:
    """Scripted membership change over real sockets: seed, change, verify."""
    from .cluster.coordinator import ClusterCoordinator

    specs = options.member or ["memory", "memory", "memory"]
    if len(specs) < 2:
        raise DataStoreError(
            f"cluster {options.action} needs at least two --member specs"
        )
    count = options.keys
    coordinator = ClusterCoordinator(engine=options.engine)
    try:
        for index, spec in enumerate(specs):
            coordinator.add_shard(f"shard-{index}", parse_store_spec(spec))
        with coordinator.client(level=3) as client:
            expected = {f"key-{i}": {"n": i} for i in range(count)}
            client.put_many(expected)
            print(f"cluster: epoch={coordinator.epoch} "
                  f"shards={len(coordinator.shards)}; seeded {count} keys")
            for entry in coordinator.status()["shards"]:
                print(f"  {entry['name']:<10} {entry['host']}:{entry['port']}"
                      f"  {entry['keys']} keys")

            if options.action == "add-shard":
                name = f"shard-{len(specs)}"
                print(f"\n-- add {name} (live; traffic keeps flowing) --")
                report = coordinator.add_shard(name, parse_store_spec(options.add))
            else:
                name = "shard-0"
                print(f"\n-- remove {name} (its keys drain to survivors) --")
                report = coordinator.remove_shard(name)
            print(f"  {report}")
            for label, moved in sorted(report.pairs.items()):
                print(f"  {label:<24} {moved} keys")

            # The L3 client converges via piggybacked epochs -- no reconnect.
            found = client.get_many(list(expected))
            lost = sum(1 for key, value in expected.items()
                       if found.get(key) != value)
            print(f"\nclient: epoch={client.epoch} redirects={client.redirects} "
                  f"refreshes={client.refreshes} "
                  f"reconnects={client.connection_reconnects()}")
            print(f"verified: {count - lost}/{count} keys intact after the move")
            for entry in coordinator.status()["shards"]:
                print(f"  {entry['name']:<10} {entry['keys']} keys")
            return 0 if lost == 0 else 1
    finally:
        coordinator.stop()


def cmd_anomaly(options: argparse.Namespace) -> int:
    """Anomaly-detection plane: inspect a live engine or run the demo.

    ``list`` and ``rules`` read a running exporter (``--url``); ``rules``
    without a URL prints the default rule template.  ``demo`` runs the
    whole loop -- latency step, error burst, slow leak, preemptive circuit
    trip and revert -- on a virtual clock with zero real sleeps.
    """
    if options.action == "list":
        import json as json_module
        import urllib.request

        if not options.url:
            raise ConfigurationError("repro anomaly list needs --url <exporter>")
        query = f"?kind=anomaly_*&limit={options.limit}"
        with urllib.request.urlopen(
            options.url.rstrip("/") + "/events.json" + query, timeout=5.0
        ) as reply:
            records = json_module.loads(reply.read().decode("utf-8"))
        if not records:
            print("(no anomaly events)")
            return 0
        for record in records:
            kind = record.get("kind", "?")
            rule = record.get("rule", record.get("action", "?"))
            series = record.get("series", "")
            value = record.get("value", "")
            print(f"{record.get('ts', 0):>14.3f}  {kind:<16}  {rule:<14}  "
                  f"{series}  {value}")
        return 0

    if options.action == "rules":
        from .obs.anomaly import default_rules

        if options.url:
            import json as json_module
            import urllib.request

            with urllib.request.urlopen(
                options.url.rstrip("/") + "/anomalies.json", timeout=5.0
            ) as reply:
                status = json_module.loads(reply.read().decode("utf-8"))
            described = status.get("rules", [])
            print(f"engine: polls={status.get('polls')} "
                  f"detected={status.get('detected')} cleared={status.get('cleared')}")
        else:
            described = [rule.describe() for rule in default_rules()]
            print("default rule template (no --url given):")
        for info in described:
            state = "ACTIVE" if info.get("active") else "quiet"
            extras = {
                key: value for key, value in info.items()
                if key not in ("rule", "kind", "series", "active")
            }
            print(f"  {info['rule']:<14} {info['kind']:<16} on {info['series']}"
                  f"  [{state}]  {extras}")
        return 0

    # demo: the full loop on a virtual clock.
    from .kv.circuit import CircuitBreaker
    from .net.latency import VirtualClock
    from .obs import EventLog, Observability
    from .obs.anomaly import (
        AnomalyEngine,
        ErrorRatioRule,
        RateOfChangeRule,
        TripCircuitAction,
        ZScoreRule,
    )

    vc = VirtualClock()
    obs = Observability(events=EventLog(clock=vc.time))
    engine = AnomalyEngine(obs, clock=vc.time)
    latency = obs.registry.histogram("store.get.seconds")
    requests = obs.registry.counter("requests")
    errors = obs.registry.counter("errors")
    leak = obs.registry.gauge("demo.leak.bytes")
    breaker = CircuitBreaker(name="demo", obs=obs, clock=vc.time)
    engine.add_rule(
        ZScoreRule("latency_p99", "store.get.seconds.p99", zmax=4.0,
                   min_observations=5, trigger_after=2, clear_after=2),
        actions=[TripCircuitAction(breaker)],
    )
    engine.add_rule(
        ErrorRatioRule("error_burst", "errors.delta", "requests.delta",
                       ratio=0.5, trigger_after=1, clear_after=2)
    )
    engine.add_rule(
        RateOfChangeRule("slow_leak", "demo.leak.bytes", per_second=100.0,
                         trigger_after=3, clear_after=3)
    )

    def tick(*, latency_s: float = 0.001, ops: int = 50, error_ops: int = 0,
             leak_step: float = 0.0) -> None:
        vc.advance(1.0)
        requests.inc(ops)
        errors.inc(error_ops)
        if leak_step:
            leak.inc(leak_step)
        for _ in range(ops):
            latency.observe(latency_s)
        for event in engine.poll(vc.time()):
            arrow = "!!" if event.kind.value == "detected" else "ok"
            print(f"  t={vc.time():>5.1f}s  {arrow} {event.kind.value:<8} "
                  f"{event.rule:<12} {event.series} "
                  f"(value {event.value:.6g}, threshold {event.threshold:g}, "
                  f"circuit {breaker.state.value})")

    print("phase 1: clean baseline (12 virtual seconds of 1 ms reads)")
    for _ in range(12):
        tick()
    print(f"  no transitions; circuit {breaker.state.value}")

    print("phase 2: latency step to 50 ms -> z-score detects, circuit trips")
    for _ in range(4):
        tick(latency_s=0.05)
    print("phase 3: latency recovers -> anomaly clears, circuit reverts")
    for _ in range(6):
        tick()
    print("phase 4: error burst (60% of ops fail) -> error-ratio detects")
    for _ in range(2):
        tick(error_ops=30)
    for _ in range(4):
        tick()
    print("phase 5: slow leak (+500 bytes/s gauge drift) -> rate rule detects")
    for _ in range(5):
        tick(leak_step=500.0)
    for _ in range(5):
        tick()

    print("\nscoreboard:")
    for metric in ("obs.anomaly.polls", "obs.anomaly.detected",
                   "obs.anomaly.cleared", "obs.anomaly.actions"):
        print(f"  {metric:<22} {obs.registry.counter(metric).value}")
    kinds = [record["kind"] for record in obs.events.tail(kind="anomaly_*")]
    print("  journal: " + " -> ".join(kinds))
    return 0


def cmd_lsm(options: argparse.Namespace) -> int:
    """Inspect or compact an on-disk LSM store directory."""
    from .lsm.store import LSMStore

    store = LSMStore(options.path, auto_compact=False, create=False)
    try:
        if options.action == "compact":
            merged = store.compact()
            print(f"compacted {merged} tables")
        stats = store.stats()
        rows = [
            ("root", stats["root"]),
            ("memtable entries", stats["memtable_entries"]),
            ("memtable bytes", stats["memtable_bytes"]),
            ("wal segment", stats["wal_segment"]),
            ("wal bytes", stats["wal_bytes"]),
            ("wal poisoned", "yes" if stats["wal_poisoned"] else "no"),
            (
                "group commit",
                f"{stats['group_commit']['committed']} records in "
                f"{stats['group_commit']['batches']} batches "
                f"(largest {stats['group_commit']['largest_batch']})",
            ),
            ("manifest bytes", stats["manifest_bytes"]),
            ("sstables", stats["sstables"]),
            ("sstable records", stats["sstable_records"]),
            ("sstable bytes", stats["sstable_bytes"]),
        ]
        cache = stats["block_cache"]
        if cache is not None:
            rows.append((
                "block cache",
                f"{cache['bytes']}/{cache['capacity_bytes']} B in "
                f"{cache['blocks']} blocks, {cache['hits']} hits / "
                f"{cache['misses']} misses ({cache['hit_rate']:.0%}), "
                f"{cache['evictions']} evictions",
            ))
        print(format_table(("metric", "value"), rows))
        if stats["tables"]:
            print(format_table(
                ("table", "records", "bytes"),
                [(t["file"], t["records"], t["bytes"]) for t in stats["tables"]],
            ))
    finally:
        store.close()
    return 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="enhanced data store clients / UDSM tooling"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    serve_parser = commands.add_parser("serve", help="run a cache or store server")
    add_serve_arguments(serve_parser)
    serve_parser.set_defaults(handler=cmd_serve)

    bench = commands.add_parser("bench", help="read/write latency sweep")
    _add_store_options(bench)
    bench.set_defaults(handler=cmd_bench)

    cached = commands.add_parser("cached-bench", help="hit-rate curve sweep")
    _add_store_options(cached)
    cached.add_argument("--cache", choices=("inprocess", "remote"), default="inprocess")
    cached.add_argument("--cache-host", default="127.0.0.1")
    cached.add_argument("--cache-port", type=int, default=0)
    cached.add_argument("--hit-rates", default="0,25,50,75,100",
                        help="comma-separated percentages")
    cached.set_defaults(handler=cmd_cached_bench)

    codec = commands.add_parser("codec-bench", help="encryption/compression sweep")
    codec.add_argument("--codec", choices=sorted(_CODECS), default="gzip")
    codec.add_argument("--sizes", default=DEFAULT_SIZES)
    codec.add_argument("--repeats", type=int, default=4)
    codec.add_argument("--output", default=None)
    codec.set_defaults(handler=cmd_codec_bench)

    mixed = commands.add_parser("mixed-bench", help="Zipf read/write throughput")
    _add_store_options(mixed)
    mixed.add_argument("--operations", type=int, default=2_000)
    mixed.add_argument("--read-fraction", type=float, default=0.9)
    mixed.add_argument("--key-space", type=int, default=500)
    mixed.add_argument("--value-size", type=int, default=1_024)
    mixed.add_argument("--cached", action="store_true",
                       help="drive an enhanced (in-process cached) client")
    mixed.set_defaults(handler=cmd_mixed_bench)

    def _add_obs_options(sub: argparse.ArgumentParser) -> None:
        _add_store_options(sub)
        sub.add_argument("--compress", choices=("gzip", "zlib", "lzma"), default=None,
                         help="add a compression stage to the pipeline")
        sub.add_argument("--encrypt", choices=("aes-gcm", "aes-cbc"), default=None,
                         help="add an encryption stage to the pipeline")
        sub.add_argument("--value-size", type=int, default=1_024,
                         help="bytes of payload per value")

    stats = commands.add_parser(
        "stats", help="run a short workload and print the metrics registry"
    )
    _add_obs_options(stats)
    stats.add_argument("--keys", type=int, default=8, help="distinct keys to touch")
    stats.add_argument("--reads", type=int, default=4, help="read passes over the keys")
    stats.add_argument("--json", action="store_true",
                       help="print the registry snapshot as JSON")
    stats.set_defaults(handler=cmd_stats)

    trace = commands.add_parser(
        "trace", help="print the span tree of put / cached get / uncached get"
    )
    _add_obs_options(trace)
    trace.set_defaults(handler=cmd_trace)

    serve_metrics = commands.add_parser(
        "serve-metrics",
        help="drive a workload and serve its telemetry over HTTP",
    )
    _add_obs_options(serve_metrics)
    serve_metrics.add_argument("--metrics-host", default="127.0.0.1")
    serve_metrics.add_argument("--metrics-port", type=int, default=0,
                               help="exporter port (0 picks a free one)")
    serve_metrics.add_argument("--duration", type=float, default=None,
                               help="seconds to run (default: until ctrl-c)")
    serve_metrics.add_argument("--keys", type=int, default=16,
                               help="distinct keys in the driven workload")
    serve_metrics.add_argument("--op-interval", type=float, default=0.01,
                               help="pause between workload operations")
    serve_metrics.add_argument("--slow-ms", type=float, default=50.0,
                               help="slow-operation threshold in milliseconds")
    serve_metrics.add_argument("--event-log", default=None,
                               help="also journal events to this JSONL file")
    serve_metrics.set_defaults(handler=cmd_serve_metrics)

    top = commands.add_parser(
        "top", help="live dashboard: op rates, p50/p99, hit ratios, slow ops"
    )
    _add_obs_options(top)
    top.add_argument("--url", default=None,
                     help="scrape a running exporter (e.g. http://127.0.0.1:9100)")
    top.add_argument("--demo", action="store_true",
                     help="drive an in-process demo workload instead of scraping")
    top.add_argument("--interval", type=float, default=1.0,
                     help="seconds between refreshes")
    top.add_argument("--iterations", type=int, default=0,
                     help="frames to render (0 = until ctrl-c)")
    top.add_argument("--no-clear", action="store_true",
                     help="append frames instead of clearing the screen")
    top.add_argument("--demo-ops", type=int, default=64,
                     help="workload operations per frame in --demo mode")
    top.add_argument("--keys", type=int, default=16,
                     help="distinct keys in the demo workload")
    top.add_argument("--slow-ms", type=float, default=None,
                     help="slow-operation threshold in milliseconds (demo mode)")
    top.add_argument("--event-log", default=None,
                     help="journal demo events to this JSONL file")
    top.add_argument("--slow-tail", type=int, default=5,
                     help="slow operations to show")
    top.set_defaults(handler=cmd_top)

    migrate = commands.add_parser("migrate", help="copy one store into another")
    migrate.add_argument("--source", required=True,
                         help="store spec, e.g. 'sql,path=a.db'")
    migrate.add_argument("--dest", required=True,
                         help="store spec, e.g. 'file,path=/var/data'")
    migrate.add_argument("--batch-size", type=int, default=100)
    migrate.add_argument("--no-overwrite", action="store_true",
                         help="skip keys already present at the destination")
    migrate.add_argument("--verify", action="store_true",
                         help="compare stores after copying")
    migrate.set_defaults(handler=cmd_migrate)

    chaos = commands.add_parser(
        "chaos",
        help="scripted outage through the fault-tolerance plane",
    )
    _add_store_options(chaos)
    chaos.add_argument("--seed", type=int, default=7, help="chaos RNG seed")
    chaos.add_argument(
        "--scenario",
        choices=("outage", "partition"),
        default="outage",
        help="outage: retry/breaker/serve-stale walkthrough; "
             "partition: PartitionedStore symmetric unreachability + flaps",
    )
    chaos.set_defaults(handler=cmd_chaos)

    quorum = commands.add_parser(
        "quorum",
        help="quorum-replication group: status, Merkle repair, scripted demo",
    )
    quorum.add_argument("action", choices=("status", "repair", "demo"))
    quorum.add_argument(
        "--member", action="append", default=None, metavar="SPEC",
        help="member store spec kind[,option=value...]; repeat for each "
             "member (status/repair need at least two)",
    )
    quorum.add_argument("--r", type=int, default=2, help="read quorum R")
    quorum.add_argument("--w", type=int, default=2, help="write quorum W")
    quorum.add_argument(
        "--depth", type=int, default=6,
        help="Merkle tree depth (2**depth anti-entropy buckets)",
    )
    quorum.add_argument("--node-id", default="cli", help="coordinator writer id")
    quorum.set_defaults(handler=cmd_quorum)

    cluster = commands.add_parser(
        "cluster",
        help="sharded cluster: remote topology status, live add/remove-shard",
    )
    cluster.add_argument("action", choices=("status", "add-shard", "remove-shard"))
    cluster.add_argument(
        "--seed", action="append", default=None, metavar="HOST:PORT",
        help="any cluster member to ask for the topology (status action; "
             "repeat for fallbacks)",
    )
    cluster.add_argument(
        "--member", action="append", default=None, metavar="SPEC",
        help="founding member store spec kind[,option=value...]; repeat per "
             "member (add/remove-shard actions; default: three in-memory)",
    )
    cluster.add_argument("--add", default="memory", metavar="SPEC",
                         help="store spec for the shard being added")
    cluster.add_argument("--keys", type=int, default=120,
                         help="keys to seed before the membership change")
    cluster.add_argument("--engine", choices=("threaded", "async"),
                         default="threaded", help="serving engine per shard")
    cluster.set_defaults(handler=cmd_cluster)

    anomaly = commands.add_parser(
        "anomaly",
        help="streaming anomaly detection: recent events, rules, scripted demo",
    )
    anomaly.add_argument("action", choices=("list", "rules", "demo"))
    anomaly.add_argument("--url", default=None,
                         help="a running exporter (e.g. http://127.0.0.1:9100)")
    anomaly.add_argument("--limit", type=int, default=20,
                         help="events to list (list action)")
    anomaly.set_defaults(handler=cmd_anomaly)

    lsm = commands.add_parser(
        "lsm", help="inspect or compact an on-disk LSM store"
    )
    lsm.add_argument("action", choices=("stats", "compact"))
    lsm.add_argument("--path", required=True, help="LSM store directory")
    lsm.set_defaults(handler=cmd_lsm)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    options = build_parser().parse_args(argv)
    try:
        return options.handler(options)
    except DataStoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
