"""Shared fixtures.

The expensive fixtures (TCP cache server) are session-scoped; tests that
need isolation flush the server keyspace themselves.  Simulated cloud
stores always use a :class:`~repro.net.latency.VirtualClock` in tests so
nothing actually sleeps.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro

from repro.kv import (
    CLOUD_STORE_1,
    CLOUD_STORE_2,
    CircuitBreakerStore,
    FileSystemStore,
    FlakyStore,
    InMemoryStore,
    LSMStore,
    NamespacedStore,
    PartitionedStore,
    ReadOnlyStore,
    RemoteKeyValueStore,
    RetryingStore,
    SimulatedCloudStore,
    SQLStore,
    TransformingStore,
)
from repro.net import ServerHandle, VirtualClock
from repro.net.client import CacheClient
from repro.udsm import MonitoredStore, PerformanceMonitor


@pytest.fixture(scope="session")
def fresh_interpreter():
    """``run(code) -> stdout``: execute *code* in a new interpreter that sees
    this checkout's ``repro`` -- for anything that must observe a *first*
    import (pytest's own process has long since loaded everything)."""

    def run(code: str) -> str:
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr
        return result.stdout

    return run


@pytest.fixture(scope="session")
def cache_server():
    """One in-thread cache server for the whole test session."""
    handle = ServerHandle.start_in_thread()
    yield handle
    handle.stop()


@pytest.fixture()
def cache_client(cache_server):
    """A fresh client against the shared server; flushes on teardown."""
    client = CacheClient(cache_server.host, cache_server.port)
    yield client
    try:
        client.flushall()
    finally:
        client.close()


@pytest.fixture()
def virtual_clock():
    return VirtualClock()


@pytest.fixture()
def thread_starts(monkeypatch):
    """Names of the threads started while the test runs (a cost counted,
    not clocked)."""
    started: list[str] = []
    original = threading.Thread.start

    def start(thread, *args, **kwargs):
        started.append(thread.name)
        return original(thread, *args, **kwargs)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


# ----------------------------------------------------------------------
# One fixture per store kind, plus an "any store" parametrised fixture
# used by the contract suite.
# ----------------------------------------------------------------------
@pytest.fixture()
def memory_store():
    with InMemoryStore() as store:
        yield store


@pytest.fixture()
def file_store(tmp_path):
    with FileSystemStore(tmp_path / "kv", name="file") as store:
        yield store


@pytest.fixture()
def sql_store():
    with SQLStore(synchronous="OFF") as store:
        yield store


@pytest.fixture()
def cloud_store(virtual_clock):
    with SimulatedCloudStore(CLOUD_STORE_2, clock=virtual_clock) as store:
        yield store


@pytest.fixture()
def cloud1_store(virtual_clock):
    with SimulatedCloudStore(CLOUD_STORE_1, clock=virtual_clock) as store:
        yield store


@pytest.fixture()
def lsm_store(tmp_path):
    # Tiny memtable so contract-suite workloads exercise flush + compaction,
    # not just the in-memory path.
    with LSMStore(tmp_path / "kv.lsm", memtable_bytes=2048) as store:
        yield store


@pytest.fixture()
def remote_store(cache_server):
    store = RemoteKeyValueStore(cache_server.host, cache_server.port)
    yield store
    store.clear()
    store.close()


# ----------------------------------------------------------------------
# Every store decorator, configured to be transparent, over an in-memory
# backend: a decorator must keep the whole contract, batch operations and
# key scans included.
# ----------------------------------------------------------------------
def _healed_partition(inner):
    store = PartitionedStore(inner)
    store.partition()
    store.heal()
    return store


def _namespace_beside_a_foreign_key(inner):
    inner.put("other:k", "foreign")  # must never be seen, counted or cleared
    return NamespacedStore(inner, "ns")


class _ReadCasesOnly(ReadOnlyStore):
    """The contract suite's read cases run; a case that writes is skipped
    (that ReadOnlyStore refuses writes is tests/test_kv_wrappers.py's job)."""

    def _invoke(self, op, method, *args):
        if op not in self._READS:
            pytest.skip(f"ReadOnlyStore refuses {op}: not a read case")
        return super()._invoke(op, method, *args)


_DECORATORS = {
    "retrying": RetryingStore,
    "circuit": CircuitBreakerStore,
    "flaky": lambda inner: FlakyStore(inner, failure_rate=0.0),
    "partitioned": _healed_partition,
    "monitored": lambda inner: MonitoredStore(inner, PerformanceMonitor()),
    "namespaced": _namespace_beside_a_foreign_key,
    "readonly": _ReadCasesOnly,
    "transforming": lambda inner: TransformingStore(
        inner, encode=lambda value: ("encoded", value), decode=lambda stored: stored[1]
    ),
}


@pytest.fixture(
    params=["memory", "file", "sql", "lsm", "cloud", "remote", *_DECORATORS]
)
def any_store(request):
    """Every backend and every decorator, one at a time -- drives the KV
    contract suite."""
    decorate = _DECORATORS.get(request.param)
    if decorate is not None:
        return decorate(InMemoryStore())
    return request.getfixturevalue(f"{request.param}_store")
