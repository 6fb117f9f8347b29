"""Import footprint: what a process pays before it does any work.

Five processes a deployment starts, each measured in a fresh
interpreter (:data:`ROUNDS` times, alternating the two modes):

* ``root`` -- ``import repro`` and nothing else;
* ``client`` -- the paper's embedded client: ``EnhancedDataStoreClient``
  over an ``InMemoryStore`` with an ``InProcessCache``, gzip and AES-GCM;
* ``serving_threaded`` / ``serving_async`` -- a serving child: one engine
  over an ``LSMStore``, measured once it is listening;
* ``serving_threaded_both_engines`` -- the e2e spine's serving child: it
  imports ``repro.net.aio`` beside ``repro.net.server`` so that it can pick
  an engine from a flag, then starts the threaded one (the state the
  spine's ``server_rss_mb`` starts from).

Two modes per process: **after** (x = 2) imports what the process names
and lets the lazy package surfaces (``repro._lazy``) load the rest on
demand; **before** (x = 1) first resolves every name of every package's
``__all__`` -- exactly what ``import repro`` did when the package
``__init__`` files re-exported eagerly, reproduced here so the comparison
needs no second checkout.  Per process and mode the series are
``<process>.import_ms``, ``.modules`` (all of ``sys.modules``),
``.repro_modules`` and ``.rss_mib`` (``VmRSS`` at the end of set-up).

The shape test asserts only the structural half (module counts are exact
and repeatable); milliseconds and MiB are recorded, not asserted.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median

import pytest

FIGURE = "import_footprint"
ROUNDS = 7
SRC = Path(__file__).resolve().parent.parent / "src"

#: What ``import repro`` did when the ``__init__`` files re-exported
#: eagerly: the root imported every package it re-exports from, and each of
#: those packages imported all of its own exports.
EAGER_PREAMBLE = """
import importlib, repro
sources = {importlib.import_module("repro." + target.split(".")[1])
           for target in repro._EXPORTS.values()}
for package in [repro] + [source for source in sources if hasattr(source, "__path__")]:
    for name in package.__all__:
        getattr(package, name)
"""

SERVING = """
import tempfile
from repro.lsm.store import LSMStore
from repro.net.server import build_server
scratch = tempfile.TemporaryDirectory(prefix="repro-footprint-")
store = LSMStore(scratch.name)
server = build_server({engine!r}, store)
server.start()
"""
SERVING_TEARDOWN = "server.stop(); store.close(); scratch.cleanup()"

#: process -> (set-up measured, teardown not measured)
PROCESSES = {
    "root": ("import repro", ""),
    "client": ("""
from repro.caching.inprocess import InProcessCache
from repro.compression.codecs import GzipCompressor
from repro.core.enhanced import EnhancedDataStoreClient
from repro.kv.memory import InMemoryStore
from repro.security.aes import AesGcmEncryptor
from repro.security.keys import generate_key
client = EnhancedDataStoreClient(
    InMemoryStore(), cache=InProcessCache(),
    compressor=GzipCompressor(), encryptor=AesGcmEncryptor(generate_key()))
""", "client.close()"),
    "serving_threaded": (SERVING.format(engine="threaded"), SERVING_TEARDOWN),
    "serving_async": (SERVING.format(engine="async"), SERVING_TEARDOWN),
    "serving_threaded_both_engines": (
        "import repro.net.aio" + SERVING.format(engine="threaded"), SERVING_TEARDOWN
    ),
}

MODES = {"before": 1.0, "after": 2.0}
METRICS = ("import_ms", "modules", "repro_modules", "rss_mib")

CHILD = """
import json, sys, time
begin = time.perf_counter()
{preamble}
{setup}
elapsed = time.perf_counter() - begin
with open("/proc/self/status") as status:
    rss_kib = next(int(line.split()[1]) for line in status if line.startswith("VmRSS"))
print(json.dumps({{
    "import_ms": elapsed * 1e3,
    "modules": len(sys.modules),
    "repro_modules": sum(1 for name in sys.modules if name.split(".")[0] == "repro"),
    "rss_mib": rss_kib / 1024,
}}))
{teardown}
"""


def measure(process: str, mode: str) -> dict[str, float]:
    """One fresh interpreter: set *process* up in *mode*, report its footprint."""
    setup, teardown = PROCESSES[process]
    code = CHILD.format(
        preamble=EAGER_PREAMBLE if mode == "before" else "", setup=setup, teardown=teardown
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def footprints() -> dict[tuple[str, str], list[dict[str, float]]]:
    samples: dict[tuple[str, str], list[dict[str, float]]] = {
        (process, mode): [] for process in PROCESSES for mode in MODES
    }
    for _ in range(ROUNDS):  # interleaved, so a slow phase lands on both modes
        for key in samples:
            samples[key].append(measure(*key))
    return samples


@pytest.mark.parametrize("process", PROCESSES)
def test_import_footprint_rows(benchmark, collector, footprints, process):
    benchmark.group = "import-footprint"
    benchmark.pedantic(lambda: None, rounds=1)
    for mode, x in MODES.items():
        for sample in footprints[process, mode]:
            for metric in METRICS:
                collector.record_value(
                    FIGURE, f"{process}.{metric}", x, sample[metric],
                    unit="ms | modules | MiB (by series suffix)",
                )
    collector.note(
        FIGURE,
        "What a fresh interpreter pays to set one process up, "
        f"{ROUNDS} interleaved runs per point.  x = 1: BEFORE (every package "
        "__all__ resolved first = the eager package surfaces `import repro` "
        "used to run); x = 2: AFTER (lazy surfaces: only what the process "
        "imports).  Processes: root = `import repro`; client = "
        "EnhancedDataStoreClient + InProcessCache + gzip + AES-GCM over "
        "InMemoryStore; serving_threaded / serving_async = build_server(engine, "
        "LSMStore) started, measured at LISTENING; serving_threaded_both_engines = "
        "the same threaded child after `import repro.net.aio` (the e2e spine "
        "child's shape).  Series suffix gives the "
        "unit: .import_ms (wall-clock of the imports + construction), .modules "
        "(len(sys.modules)), .repro_modules, .rss_mib (VmRSS).",
    )


def test_import_footprint_shape(benchmark, footprints):
    """Module counts repeat exactly, so they carry the assertion."""
    benchmark.group = "import-footprint"
    benchmark.pedantic(lambda: None, rounds=1)

    def count(process: str, mode: str, metric: str = "repro_modules") -> float:
        values = {sample[metric] for sample in footprints[process, mode]}
        assert len(values) == 1, (process, mode, metric, values)
        return values.pop()

    assert count("root", "after") <= 3
    for process in PROCESSES:
        assert count(process, "after") < count(process, "before") / 2, process
        assert count(process, "after", "modules") < count(process, "before", "modules")
        rss = {mode: median(s["rss_mib"] for s in footprints[process, mode]) for mode in MODES}
        assert rss["after"] < rss["before"], (process, rss)
