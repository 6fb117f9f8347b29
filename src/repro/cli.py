"""Command-line interface: ``python -m repro <command>``.

The operational front-end: start the bundled servers, look at a running
enhanced client's telemetry, and inspect or repair stores.  Benchmarks and
scripted failure scenarios are not commands: the workload generators are a
library API (``repro.udsm.workload``, ``repro.udsm.loadgen``; see
docs/udsm_guide.md) and each scenario has one home in the tests and the
``make check-*`` gates.

Commands
--------
``serve``
    Run a cache server (or serve a sqlite / LSM store) in the foreground.
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
``migrate``
    Copy one store into another (optionally verifying the copy).
``quorum``
    Quorum-replication plane: ``quorum status`` / ``quorum repair``
    compose an R+W>N group from repeated ``--member`` specs (status exits
    1 on divergence; repair runs a Merkle anti-entropy round).
``cluster``
    Sharded-cluster plane (see docs/cluster.md): ``cluster status`` asks a
    live shard for its topology over the wire.
``anomaly``
    Anomaly-detection plane (see docs/anomaly.md): ``anomaly list`` /
    ``anomaly rules`` read a running exporter's events and rule states.
``lsm``
    Inspect (``lsm stats``) or compact (``lsm compact``) an on-disk LSM
    store directory (see docs/lsm.md).

Errors exit 2 with ``error: ...`` on stderr.

Examples::

    python -m repro serve --port 7379
    python -m repro stats --store memory --compress gzip --json
    python -m repro trace --store cloud1 --encrypt aes-gcm
    python -m repro serve-metrics --metrics-port 9100 --store cloud1
    python -m repro top --url http://127.0.0.1:9100
    python -m repro top --demo --iterations 3
    python -m repro migrate --source sql,path=a.db --dest lsm,path=b.lsm --verify
    python -m repro quorum status --member sql,path=a.db --member sql,path=b.db
    python -m repro quorum repair --member memory --member memory --r 1 --w 2
    python -m repro cluster status --seed 127.0.0.1:7400
    python -m repro anomaly list --url http://127.0.0.1:9100
    python -m repro serve --backend lsm --database /var/data/kv.lsm
    python -m repro lsm stats --path /var/data/kv.lsm
    python -m repro lsm compact --path /var/data/kv.lsm
"""

from __future__ import annotations

import argparse
import sys
from contextlib import ExitStack
from importlib import import_module
from typing import TYPE_CHECKING, Any

from .errors import ConfigurationError, DataStoreError
from .net.server import add_serve_arguments, serve
from .udsm.report import format_table

# Backends, caches and codecs are imported by the sub-command that uses
# them: building the parser (``--help``, ``serve``, ``top``, ``lsm``) must
# not load sqlite3 or ``cryptography``.
if TYPE_CHECKING:
    from .core.enhanced import EnhancedDataStoreClient
    from .kv.interface import KeyValueStore

__all__ = ["main"]


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


def _add_client_options(parser: argparse.ArgumentParser) -> None:
    """The store and pipeline of the enhanced client a command drives."""
    parser.add_argument(
        "--store",
        choices=("memory", "file", "sql", "lsm", "cloud1", "cloud2", "redis"),
        default="memory",
        help="data store the enhanced client wraps",
    )
    parser.add_argument("--path", default=None,
                        help="directory (file/lsm) / db path (sql)")
    parser.add_argument("--host", default="127.0.0.1", help="redis-store host")
    parser.add_argument("--port", type=int, default=0, help="redis-store port")
    parser.add_argument(
        "--time-scale", type=float, default=0.1,
        help="WAN scale for cloud stores (default 0.1 = one tenth latency)",
    )
    parser.add_argument("--compress", choices=("gzip", "zlib", "lzma"), default=None,
                        help="add a compression stage to the pipeline")
    parser.add_argument("--encrypt", choices=("aes-gcm", "aes-cbc"), default=None,
                        help="add an encryption stage to the pipeline")
    parser.add_argument("--value-size", type=int, default=1_024,
                        help="bytes of payload per value")


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def cmd_serve(options: argparse.Namespace) -> int:
    serve(options)
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

    # ``with`` closes both stores on every exit, so a failed verify or copy
    # never leaves an LSM directory locked for the rest of the process.
    with (
        parse_store_spec(options.source) as source,
        parse_store_spec(options.dest) as destination,
    ):
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
    return 0


def cmd_quorum(options: argparse.Namespace) -> int:
    """Quorum-replication plane: group status or Merkle repair.

    Both actions compose a group from repeated ``--member`` specs
    (attaching to whatever the members already hold via a one-time tree
    rebuild).  ``status`` exits 1 when the members have diverged, which
    makes it usable as a health probe.
    """
    from .kv.quorum import QuorumReplicatedStore

    specs = options.member or []
    if len(specs) < 2:
        raise DataStoreError(
            f"quorum {options.action} needs at least two --member specs"
        )
    with ExitStack() as opened:
        # Every member opened so far is closed even when a later spec or
        # the group constructor (say R > N) refuses.
        members = [opened.enter_context(parse_store_spec(spec)) for spec in specs]
        group = QuorumReplicatedStore(
            members,
            read_quorum=options.r,
            write_quorum=options.w,
            node_id=options.node_id,
            merkle_depth=options.depth,
        )
        opened.callback(group.close)
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


def cmd_cluster(options: argparse.Namespace) -> int:
    """Sharded-cluster plane: ask any shard (``--seed host:port``) for its
    topology over the wire (the ``TOPOLOGY`` command) and print the shard
    map with per-shard key counts."""
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


def cmd_anomaly(options: argparse.Namespace) -> int:
    """Anomaly-detection plane: inspect a live engine.

    ``list`` and ``rules`` read a running exporter (``--url``); ``rules``
    without a URL prints the default rule template.
    """
    from .obs.top import scrape_anomalies_json, scrape_events_json

    if options.action == "list":
        if not options.url:
            raise ConfigurationError("repro anomaly list needs --url <exporter>")
        records = scrape_events_json(options.url, kind="anomaly_*", count=options.limit)
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

    if options.url:
        status = scrape_anomalies_json(options.url)
        if status is None:
            raise ConfigurationError(f"exporter {options.url} has no anomaly engine")
        described = status.get("rules", [])
        print(f"engine: polls={status.get('polls')} "
              f"detected={status.get('detected')} cleared={status.get('cleared')}")
    else:
        from .obs.anomaly import default_rules

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

    stats = commands.add_parser(
        "stats", help="run a short workload and print the metrics registry"
    )
    _add_client_options(stats)
    stats.add_argument("--keys", type=int, default=8, help="distinct keys to touch")
    stats.add_argument("--reads", type=int, default=4, help="read passes over the keys")
    stats.add_argument("--json", action="store_true",
                       help="print the registry snapshot as JSON")
    stats.set_defaults(handler=cmd_stats)

    trace = commands.add_parser(
        "trace", help="print the span tree of put / cached get / uncached get"
    )
    _add_client_options(trace)
    trace.set_defaults(handler=cmd_trace)

    serve_metrics = commands.add_parser(
        "serve-metrics",
        help="drive a workload and serve its telemetry over HTTP",
    )
    _add_client_options(serve_metrics)
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
    _add_client_options(top)
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

    quorum = commands.add_parser(
        "quorum",
        help="quorum-replication group: status, Merkle repair",
    )
    quorum.add_argument("action", choices=("status", "repair"))
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
        help="sharded cluster: remote topology status",
    )
    cluster.add_argument("action", choices=("status",))
    cluster.add_argument(
        "--seed", action="append", default=None, metavar="HOST:PORT",
        help="any cluster member to ask for the topology (repeat for fallbacks)",
    )
    cluster.set_defaults(handler=cmd_cluster)

    anomaly = commands.add_parser(
        "anomaly",
        help="streaming anomaly detection: recent events, rules",
    )
    anomaly.add_argument("action", choices=("list", "rules"))
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
