"""Benchmark harness shared infrastructure.

Run with::

    pytest benchmarks/ --benchmark-only

Every paper figure has a bench module; results (gnuplot ``.dat`` files, an
ASCII rendition of each figure, and a paper-shape check report) are written
to ``results/`` at the end of the session by the :class:`FigureCollector`.

Scaling: the simulated cloud stores run at ``TIME_SCALE = 0.1`` (one tenth
of the modelled WAN latency) so the full sweep finishes in minutes.  The
scale multiplies every simulated delay uniformly and local stores are real,
unscaled I/O, so orderings and crossovers among stores are preserved;
absolute cloud numbers are 10x smaller than the model.  Every report states
this.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import tempfile
from collections import defaultdict
from pathlib import Path

import pytest

from repro.kv import (
    CLOUD_STORE_1,
    CLOUD_STORE_2,
    FileSystemStore,
    RemoteKeyValueStore,
    SimulatedCloudStore,
)
from repro.net import ServerHandle
from repro.obs.metrics import percentile
from repro.udsm.report import ascii_loglog_chart, format_table, write_dat

#: WAN latency scale for simulated cloud stores (documented in all output).
TIME_SCALE = 0.1

#: Object-size sweep (paper: 1 B - 1 MB, log scale).
SIZES = (1, 10, 100, 1_000, 10_000, 100_000, 1_000_000)

#: Runs averaged per data point (paper: 4).
ROUNDS = 4

#: The five stores of the paper's evaluation.
STORE_NAMES = ("file", "sql", "cloud1", "cloud2", "redis")

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def size_id(size: int) -> str:
    if size >= 1_000_000:
        return f"{size // 1_000_000}MB"
    if size >= 1_000:
        return f"{size // 1_000}KB"
    return f"{size}B"


# ----------------------------------------------------------------------
# Stores at benchmark scale
# ----------------------------------------------------------------------
@pytest.fixture(scope="session")
def bench_server():
    """A true remote-process cache server (child process, real IPC)."""
    handle = ServerHandle.spawn_process()
    yield handle
    handle.stop()


@pytest.fixture(scope="session")
def bench_sql_server(tmp_path_factory):
    """A client-server SQL store (sqlite behind a TCP server process).

    The paper's MySQL is reached over a socket via JDBC; serving our sqlite
    substrate through a separate server process restores that shape.
    """
    database = tmp_path_factory.mktemp("sql") / "bench.db"
    handle = ServerHandle.spawn_process(backend="sql", database=str(database))
    yield handle
    handle.stop()


@pytest.fixture(scope="session")
def bench_stores(bench_server, bench_sql_server):
    """The paper's five stores, configured for benchmarking."""
    workdir = Path(tempfile.mkdtemp(prefix="repro-bench-"))
    stores = {
        "file": FileSystemStore(workdir / "fs", name="file"),
        "sql": RemoteKeyValueStore(
            bench_sql_server.host, bench_sql_server.port, name="sql"
        ),
        "cloud1": SimulatedCloudStore(
            CLOUD_STORE_1, name="cloud1", time_scale=TIME_SCALE, seed=11
        ),
        "cloud2": SimulatedCloudStore(
            CLOUD_STORE_2, name="cloud2", time_scale=TIME_SCALE, seed=22
        ),
        "redis": RemoteKeyValueStore(bench_server.host, bench_server.port, name="redis"),
    }
    yield stores
    for store in stores.values():
        try:
            store.clear()
        except Exception:  # noqa: BLE001 - teardown best effort
            pass
        store.close()
    shutil.rmtree(workdir, ignore_errors=True)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _filesystem_type(path: str) -> str:
    """Filesystem under *path* (where ``tmp_path`` stores live), as ``stat -f`` names it."""
    try:
        return subprocess.run(
            ["stat", "-f", "-c", "%T", path], capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


# ----------------------------------------------------------------------
# Figure collector
# ----------------------------------------------------------------------
class FigureCollector:
    """Accumulates (figure, series, x, y) points and writes reports."""

    def __init__(self, results_dir: Path) -> None:
        self.results_dir = results_dir
        # figure -> series -> list of (x, y in the figure's unit)
        self.figures: dict[str, dict[str, list[tuple[float, float]]]] = defaultdict(
            lambda: defaultdict(list)
        )
        self.notes: dict[str, str] = {}
        self.units: dict[str, str] = {}
        self.x_is_size: dict[str, bool] = {}
        #: Latency figures whose JSON carries no derived throughput: in an
        #: open loop the arrival schedule sets the rate, so ``1e3 / mean``
        #: is inverse latency, not operations per second.
        self.open_loop: set[str] = set()

    def record(self, figure: str, series: str, x: float, y_seconds: float) -> None:
        """Add one latency point (y in seconds; stored and reported as ms)."""
        self.units.setdefault(figure, "ms")
        self.figures[figure][series].append((x, y_seconds * 1e3))

    def record_value(
        self, figure: str, series: str, x: float, y: float, *, unit: str,
        x_is_size: bool = False,
    ) -> None:
        """Add a non-latency point (bytes, hit rate...) in its own unit."""
        self.units[figure] = unit
        self.x_is_size[figure] = x_is_size
        self.figures[figure][series].append((x, y))

    def record_series(
        self, figure: str, series: str, points: list[tuple[float, float]]
    ) -> None:
        """Add a whole (x, y_seconds) latency series at once."""
        for x, y_seconds in points:
            self.record(figure, series, x, y_seconds)

    def note(self, figure: str, text: str) -> None:
        self.notes[figure] = text

    # ------------------------------------------------------------------
    def mean_at(self, figure: str, series: str, x: float) -> float | None:
        """Mean of recorded y values (ms) for a series at one x."""
        points = [y for px, y in self.figures[figure][series] if px == x]
        if not points:
            return None
        return sum(points) / len(points)

    def series_names(self, figure: str) -> list[str]:
        return sorted(self.figures[figure])

    # ------------------------------------------------------------------
    def flush(self) -> None:
        self.results_dir.mkdir(parents=True, exist_ok=True)
        for figure, series_map in sorted(self.figures.items()):
            self._write_figure(figure, series_map)

    def _write_figure(self, figure: str, series_map: dict[str, list[tuple[float, float]]]) -> None:
        # One .dat per figure: column 1 = x, one column per series.
        unit = self.units.get(figure, "ms")
        x_is_size = self.x_is_size.get(figure, True)
        xs = sorted({x for pts in series_map.values() for x, _ in pts})
        names = sorted(series_map)
        rows = []
        for x in xs:
            row: list[object] = [int(x) if float(x).is_integer() else x]
            for name in names:
                mean = self.mean_at(figure, name, x)
                row.append("nan" if mean is None else mean)
            rows.append(row)
        write_dat(
            self.results_dir / f"{figure}.dat",
            ["x"] + [f"{name}_{unit}" for name in names],
            rows,
        )
        chart = ascii_loglog_chart(
            {name: series_map[name] for name in names},
            x_label="object size (bytes)" if x_is_size else "x",
            y_label=unit if unit != "ms" else "latency (ms)",
        )
        text = [f"== {figure} =="]
        if figure in self.notes:
            text.append(self.notes[figure])
        text.append(chart)

        def x_label(x: float) -> str:
            if x_is_size and float(x).is_integer() and x >= 1:
                return size_id(int(x))
            return f"{x:g}"

        table_rows = []
        for x in xs:
            table_rows.append(
                [x_label(x)] + [
                    f"{self.mean_at(figure, name, x):.4g}"
                    if self.mean_at(figure, name, x) is not None
                    else "-"
                    for name in names
                ]
            )
        first_column = "size" if x_is_size else "x"
        text.append(
            format_table([first_column] + [f"{n} ({unit})" for n in names], table_rows)
        )
        (self.results_dir / f"{figure}.txt").write_text("\n".join(text) + "\n")
        self._write_json(figure, series_map, unit=unit, x_is_size=x_is_size)

    def _write_json(
        self,
        figure: str,
        series_map: dict[str, list[tuple[float, float]]],
        *,
        unit: str,
        x_is_size: bool,
    ) -> None:
        """Machine-readable summary: ``BENCH_<figure>.json`` beside the
        ``.dat``/``.txt``, so dashboards and regression checks can consume
        benchmark output without re-parsing gnuplot columns.

        Per series and x: sample count, mean/min/max and p50/p95/p99 over
        the raw repeats, plus derived throughput (ops/s) for closed-loop
        latency figures (not for those in :attr:`open_loop`).
        """
        series_out: dict[str, list[dict[str, object]]] = {}
        for name in sorted(series_map):
            by_x: dict[float, list[float]] = defaultdict(list)
            for x, y in series_map[name]:
                by_x[x].append(y)
            points = []
            for x in sorted(by_x):
                samples = by_x[x]
                mean = sum(samples) / len(samples)
                point: dict[str, object] = {
                    "x": int(x) if float(x).is_integer() else x,
                    "count": len(samples),
                    "mean": mean,
                    "min": min(samples),
                    "max": max(samples),
                    "p50": percentile(samples, 0.50),
                    "p95": percentile(samples, 0.95),
                    "p99": percentile(samples, 0.99),
                }
                if unit == "ms" and mean > 0 and figure not in self.open_loop:
                    point["throughput_ops_per_s"] = 1e3 / mean
                points.append(point)
            series_out[name] = points
        document = {
            "figure": figure,
            "unit": unit,
            "x_is_size": x_is_size,
            "note": self.notes.get(figure),
            "config": {
                "time_scale": TIME_SCALE,
                "sizes": list(SIZES),
                "rounds": ROUNDS,
                # Wall-clock figures only compare on the same interpreter and
                # machine size; say which this file came from.
                "python": platform.python_version(),
                "cpus": os.cpu_count(),
                "cpu": _cpu_model(),
                "tmp_filesystem": _filesystem_type(tempfile.gettempdir()),
            },
            "series": series_out,
        }
        (self.results_dir / f"BENCH_{figure}.json").write_text(
            json.dumps(document, indent=2) + "\n"
        )


@pytest.fixture(scope="session")
def collector():
    instance = FigureCollector(RESULTS_DIR)
    yield instance
    instance.flush()
