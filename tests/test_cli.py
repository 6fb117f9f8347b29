"""CLI: the operational command surface, store construction, error paths."""

from __future__ import annotations

import argparse
import socket

import pytest

from repro.cli import build_parser, build_store, main
from repro.errors import DataStoreError
from repro.kv import FileSystemStore, InMemoryStore, SimulatedCloudStore, SQLStore


def closed_port_url() -> str:
    """An exporter URL nothing listens on: a port bound once, then released."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    return f"http://127.0.0.1:{port}"


class TestParsing:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_surface_is_the_operational_commands(self):
        (commands,) = [
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        assert set(commands.choices) == {
            "serve", "stats", "trace", "serve-metrics", "top", "migrate",
            "quorum", "cluster", "anomaly", "lsm",
        }
        for name, kept in (
            ("quorum", {"status", "repair"}),
            ("cluster", {"status"}),
            ("anomaly", {"list", "rules"}),
            ("lsm", {"stats", "compact"}),
        ):
            (action,) = [
                action for action in commands.choices[name]._actions
                if action.dest == "action"
            ]
            assert set(action.choices) == kept, name


class TestParserImportsNoBackend:
    """Building the parser (``--help``, ``serve``, ``top``, ``lsm``) loads
    no store backend or codec; a sub-command imports what it uses."""

    def test_build_parser_and_help(self, fresh_interpreter):
        fresh_interpreter(
            "import sys\n"
            "from repro.cli import build_parser, main\n"
            "build_parser()\n"
            "try:\n"
            "    main(['--help'])\n"
            "except SystemExit as stop:\n"
            "    assert stop.code == 0\n"
            "heavy = {'sqlite3', 'cryptography', 'repro.kv.sqlstore', 'repro.security.aes',\n"
            "         'repro.kv.quorum', 'repro.udsm.workload', 'repro.lsm.store'}\n"
            "assert not heavy & set(sys.modules), heavy & set(sys.modules)\n"
        )

    def test_a_command_loads_its_own_closure_only(self, fresh_interpreter, tmp_path):
        fresh_interpreter(
            "import sys\n"
            "from repro.cli import main\n"
            f"assert main(['lsm', 'stats', '--path', {str(tmp_path / 'missing')!r}]) == 2\n"
            "assert 'repro.lsm.store' in sys.modules\n"
            "assert main(['stats', '--store', 'memory', '--keys', '2', '--reads', '1']) == 0\n"
            "assert 'repro.core.enhanced' in sys.modules\n"
            "assert not {'sqlite3', 'cryptography'} & set(sys.modules)\n"
            "assert main(['stats', '--store', 'memory', '--keys', '2', '--reads', '1',\n"
            "             '--encrypt', 'aes-gcm']) == 0\n"
            "assert 'cryptography' in sys.modules and 'sqlite3' not in sys.modules\n"
        )


class TestBuildStore:
    def parse(self, *argv):
        return build_parser().parse_args(["stats", *argv])

    def test_memory(self):
        assert isinstance(build_store(self.parse("--store", "memory")), InMemoryStore)

    def test_file_requires_path(self, tmp_path):
        store = build_store(self.parse("--store", "file", "--path", str(tmp_path)))
        assert isinstance(store, FileSystemStore)
        with pytest.raises(DataStoreError):
            build_store(self.parse("--store", "file"))

    def test_sql(self, tmp_path):
        store = build_store(
            self.parse("--store", "sql", "--path", str(tmp_path / "cli.db"))
        )
        assert isinstance(store, SQLStore)

    def test_cloud_with_scale(self):
        store = build_store(self.parse("--store", "cloud1", "--time-scale", "0.01"))
        assert isinstance(store, SimulatedCloudStore)
        assert store.time_scale == 0.01

    def test_redis_requires_port(self):
        with pytest.raises(DataStoreError):
            build_store(self.parse("--store", "redis"))

    def test_lsm_requires_path(self, tmp_path):
        from repro.kv import LSMStore

        store = build_store(self.parse("--store", "lsm", "--path", str(tmp_path / "kv")))
        assert isinstance(store, LSMStore)
        store.close()
        with pytest.raises(DataStoreError):
            build_store(self.parse("--store", "lsm"))


class TestServeCommand:
    def test_serve_subprocess_round_trip(self):
        """`python -m repro serve` starts a usable server process."""
        import subprocess
        import sys

        from repro.net.client import CacheClient

        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        try:
            line = process.stdout.readline()
            assert line.startswith(b"LISTENING")
            _token, host, port = line.decode().split()
            client = CacheClient(host, int(port))
            client.set(b"k", b"via-cli-server")
            assert client.get(b"k") == b"via-cli-server"
            client.close()
        finally:
            process.terminate()
            process.wait(timeout=5)

    def test_serve_metrics_port(self):
        """`repro serve` and `python -m repro.net.server` share one parser,
        so the documented --metrics-port works from both entry points."""
        import subprocess
        import sys
        import urllib.request

        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--metrics-port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        try:
            assert process.stdout.readline().startswith(b"LISTENING")
            line = process.stdout.readline()
            assert line.startswith(b"METRICS")
            _token, host, port = line.decode().split()
            with urllib.request.urlopen(f"http://{host}:{port}/metrics", timeout=5) as reply:
                assert reply.status == 200
        finally:
            process.terminate()
            process.wait(timeout=5)
            process.stdout.close()

    def test_serve_parser_defaults(self):
        options = build_parser().parse_args(["serve"])
        assert options.backend == "cache"
        assert options.port == 0

    def test_serve_lsm_backend_round_trip(self, tmp_path):
        from repro.kv import LSMStore, RemoteKeyValueStore
        from repro.net.server import ServerHandle

        lsm_dir = tmp_path / "served.lsm"
        with ServerHandle.spawn_process(backend="lsm", database=str(lsm_dir)) as handle:
            remote = RemoteKeyValueStore(handle.host, handle.port)
            remote.put("durable", {"backend": "lsm"})
            assert remote.get("durable") == {"backend": "lsm"}
            remote.close()
        # the server process is gone; the data is not
        with LSMStore(lsm_dir) as store:
            assert store.contains("durable")


class TestLSMCommand:
    def seed(self, tmp_path, values=30):
        from repro.kv import LSMStore

        root = tmp_path / "kv.lsm"
        with LSMStore(root, auto_compact=False) as store:
            for i in range(values):
                store.put(f"k{i:02d}", i)
                if i % 10 == 9:
                    store.flush()
        return root

    def test_stats_prints_engine_figures(self, tmp_path, capsys):
        root = self.seed(tmp_path)
        assert main(["lsm", "stats", "--path", str(root)]) == 0
        out = capsys.readouterr().out
        assert "sstables" in out
        assert ".sst" in out
        assert "block cache" not in out  # reads go through the OS page cache

    def test_compact_merges_tables(self, tmp_path, capsys):
        root = self.seed(tmp_path)
        assert main(["lsm", "compact", "--path", str(root)]) == 0
        out = capsys.readouterr().out
        assert "compacted 3 tables" in out

    def test_missing_directory_is_an_error(self, tmp_path, capsys):
        assert main(["lsm", "stats", "--path", str(tmp_path / "absent")]) == 2
        assert "error:" in capsys.readouterr().err


class TestStatsCommand:
    def test_stats_prints_registry_table(self, capsys):
        code = main(["stats", "--store", "memory", "--keys", "4", "--reads", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "counters:" in out
        assert "client.cache_hits" in out
        assert "histograms (ms):" in out
        assert "client.get.seconds" in out

    def test_stats_json_is_parseable(self, capsys):
        import json

        code = main(["stats", "--store", "memory", "--keys", "3", "--reads", "1",
                     "--compress", "gzip", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        # 3 keys x 1 pass + the post-invalidate read = 4 gets
        assert data["histograms"]["client.get.seconds"]["count"] == 4
        assert data["counters"]["client.cache_misses"] == 1
        assert data["counters"]["pipeline.gzip.bytes_in"] > 0


class TestTraceCommand:
    def test_trace_prints_span_trees(self, capsys):
        assert main(["trace", "--store", "memory"]) == 0
        out = capsys.readouterr().out
        assert "--- put ---" in out and "--- get (cache miss) ---" in out
        assert "dscl.put" in out
        assert "dscl.invalidate" in out
        assert "cache.lookup" in out and "store.get" in out

    def test_trace_shows_pipeline_stages(self, capsys):
        assert main(["trace", "--store", "memory",
                     "--compress", "zlib", "--encrypt", "aes-gcm"]) == 0
        out = capsys.readouterr().out
        assert "pipeline.compress" in out and "pipeline.encrypt" in out
        assert "pipeline.decrypt" in out and "pipeline.decompress" in out


class TestTopCommand:
    def test_demo_renders_a_non_empty_frame(self, capsys):
        code = main(["top", "--demo", "--iterations", "1", "--interval", "0",
                     "--no-clear", "--demo-ops", "24", "--store", "memory"])
        assert code == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "operations:" in out
        assert "client.get" in out and "p99 ms" in out
        assert "hit ratios:" in out
        # --demo defaults the slow threshold to 0, so the tail is populated.
        assert "slow operations" in out and "dscl.get" in out

    def test_demo_second_frame_has_rates(self, capsys):
        code = main(["top", "--demo", "--iterations", "2", "--interval", "0",
                     "--no-clear", "--demo-ops", "16", "--store", "memory"])
        assert code == 0
        frames = capsys.readouterr().out.split("repro top")
        assert len(frames) == 3  # leading split + two frames
        assert "ops/s" in frames[2]

    def test_requires_url_or_demo(self, capsys):
        assert main(["top", "--iterations", "1"]) == 2
        assert "needs --url" in capsys.readouterr().err

    def test_unreachable_exporter_is_an_error(self, capsys):
        url = closed_port_url()
        assert main(["top", "--url", url, "--iterations", "1", "--no-clear"]) == 2
        assert f"error: cannot reach exporter {url}" in capsys.readouterr().err


class TestServeMetricsCommand:
    def test_serves_prometheus_while_driving_workload(self, capsys):
        import re
        import threading
        import time
        import urllib.request

        from repro.obs.export import parse_prometheus

        result: dict[str, object] = {}

        def run() -> None:
            result["code"] = main(
                ["serve-metrics", "--store", "memory", "--duration", "1.5",
                 "--op-interval", "0.001", "--slow-ms", "0"]
            )

        thread = threading.Thread(target=run)
        thread.start()
        try:
            # The METRICS line is printed before the workload loop starts.
            deadline = time.monotonic() + 5
            announced = None
            while time.monotonic() < deadline and announced is None:
                captured = capsys.readouterr().out
                announced = re.search(r"METRICS (\S+) (\d+)", captured)
                if announced is None:
                    time.sleep(0.05)
            assert announced is not None, "exporter address never announced"
            url = f"http://{announced.group(1)}:{announced.group(2)}"
            time.sleep(0.3)  # let some workload accumulate
            with urllib.request.urlopen(url + "/metrics", timeout=5) as reply:
                parsed = parse_prometheus(reply.read().decode())
            assert parsed["counters"]["client_cache_hits"] >= 1
            assert parsed["histograms"]["client_get_seconds"]["count"] >= 1
        finally:
            thread.join(timeout=10)
        assert result["code"] == 0


class TestQuorumCommand:
    def test_status_flags_diverged_members(self, tmp_path, capsys):
        from repro.kv import SQLStore

        for name, revision in (("a.db", 1), ("b.db", 2)):
            store = SQLStore(str(tmp_path / name))
            store.put("k", {"revision": revision})
            store.close()
        argv = [
            "quorum", "status",
            "--member", f"sql,path={tmp_path / 'a.db'}",
            "--member", f"sql,path={tmp_path / 'b.db'}",
            "--r", "1", "--w", "2",
        ]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "DIVERGED" in out
        assert "merkle root (prefix)" in out

    def test_repair_converges_then_status_passes(self, tmp_path, capsys):
        from repro.kv import SQLStore

        for name, revision in (("a.db", 1), ("b.db", 2)):
            store = SQLStore(str(tmp_path / name))
            store.put("k", {"revision": revision})
            store.close()
        members = [
            "--member", f"sql,path={tmp_path / 'a.db'}",
            "--member", f"sql,path={tmp_path / 'b.db'}",
        ]
        assert main(["quorum", "repair", *members, "--r", "1", "--w", "2"]) == 0
        out = capsys.readouterr().out
        assert "in sync" in out
        assert main(["quorum", "status", *members, "--r", "1", "--w", "2"]) == 0

    def test_status_requires_two_members(self, capsys):
        assert main(["quorum", "status", "--member", "memory"]) == 2
        assert "at least two --member" in capsys.readouterr().err

    def test_refused_group_closes_its_members(self, tmp_path, capsys):
        from repro.kv import LSMStore

        argv = ["quorum", "status", "--r", "5"]
        for name in ("a.lsm", "b.lsm"):
            argv += ["--member", f"lsm,path={tmp_path / name}"]
        assert main(argv) == 2  # R=5 > N=2: the group constructor refuses
        assert "error:" in capsys.readouterr().err
        for name in ("a.lsm", "b.lsm"):
            LSMStore(tmp_path / name).close()  # not "already open elsewhere"


class TestClusterCommand:
    def test_status_prints_the_live_shard_map(self, capsys):
        from repro.cluster import ClusterCoordinator
        from repro.kv import InMemoryStore

        coordinator = ClusterCoordinator()
        try:
            for index in range(3):
                coordinator.add_shard(f"shard-{index}", InMemoryStore())
            with coordinator.client() as client:
                client.put_many({f"key-{i}": i for i in range(30)})
            host, port = coordinator.seeds[0]
            assert main(["cluster", "status", "--seed", f"{host}:{port}"]) == 0
        finally:
            coordinator.stop()
        out = capsys.readouterr().out
        for index in range(3):
            assert f"shard-{index}" in out
        assert f"epoch={coordinator.epoch} shards=3" in out
        assert "total_keys=30" in out

    def test_status_falls_through_to_a_reachable_seed(self, capsys):
        from repro.cluster import ClusterCoordinator
        from repro.kv import InMemoryStore

        coordinator = ClusterCoordinator()
        try:
            for index in range(2):
                coordinator.add_shard(f"shard-{index}", InMemoryStore())
            host, port = coordinator.seeds[0]
            dead = closed_port_url().removeprefix("http://")
            argv = ["cluster", "status", "--seed", dead, "--seed", f"{host}:{port}"]
            assert main(argv) == 0
        finally:
            coordinator.stop()
        assert "shards=2" in capsys.readouterr().out

    def test_status_requires_a_seed(self, capsys):
        assert main(["cluster", "status"]) == 2
        assert "at least one --seed" in capsys.readouterr().err

    def test_status_rejects_a_malformed_seed(self, capsys):
        assert main(["cluster", "status", "--seed", "no-port"]) == 2
        assert "bad --seed 'no-port'" in capsys.readouterr().err

    def test_status_of_a_standalone_server(self, cache_server, capsys):
        seed = f"{cache_server.host}:{cache_server.port}"
        assert main(["cluster", "status", "--seed", seed]) == 1
        assert f"error: {seed} is not in a cluster" in capsys.readouterr().err

    def test_status_with_no_reachable_seed(self, capsys):
        seed = closed_port_url().removeprefix("http://")
        assert main(["cluster", "status", "--seed", seed]) == 1
        assert "error: no seed reachable" in capsys.readouterr().err


class TestAnomalyCommand:
    def test_rules_without_url_prints_default_template(self, capsys):
        assert main(["anomaly", "rules"]) == 0
        out = capsys.readouterr().out
        assert "default rule template" in out
        assert "latency_p99" in out and "slow_leak" in out

    def test_list_requires_url(self, capsys):
        assert main(["anomaly", "list"]) == 2
        assert "--url" in capsys.readouterr().err

    @pytest.mark.parametrize("action", ["list", "rules"])
    def test_unreachable_exporter_is_an_error(self, action, capsys):
        url = closed_port_url()
        assert main(["anomaly", action, "--url", url]) == 2
        assert f"error: cannot reach exporter {url}" in capsys.readouterr().err

    def test_rules_from_an_exporter_without_an_engine(self, capsys):
        from repro.obs import EventLog, Observability
        from repro.obs.export import start_http_exporter

        with start_http_exporter(Observability(events=EventLog())) as handle:
            assert main(["anomaly", "rules", "--url", handle.url]) == 2
        assert "has no anomaly engine" in capsys.readouterr().err

    def test_list_and_rules_against_live_exporter(self, capsys):
        from repro.obs import EventLog, Observability
        from repro.obs.anomaly import AnomalyEngine, ThresholdRule
        from repro.obs.export import start_http_exporter

        obs = Observability(events=EventLog())
        clock = iter(float(step) for step in range(100))
        engine = AnomalyEngine(obs, clock=lambda: next(clock))
        engine.add_rule(ThresholdRule("deep", "q", limit=5.0, trigger_after=1))
        engine.poll()
        obs.registry.gauge("q").set(50.0)
        engine.poll()
        with start_http_exporter(obs, anomaly=engine) as handle:
            assert main(["anomaly", "list", "--url", handle.url]) == 0
            out = capsys.readouterr().out
            assert "anomaly_detected" in out and "deep" in out
            assert main(["anomaly", "rules", "--url", handle.url]) == 0
            out = capsys.readouterr().out
            assert "deep" in out

    def test_list_with_no_events(self, capsys):
        from repro.obs import EventLog, Observability
        from repro.obs.export import start_http_exporter

        obs = Observability(events=EventLog())
        with start_http_exporter(obs) as handle:
            assert main(["anomaly", "list", "--url", handle.url]) == 0
        assert "(no anomaly events)" in capsys.readouterr().out
