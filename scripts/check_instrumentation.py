#!/usr/bin/env python
"""Instrumentation-coverage check (``make check-obs``).

Guards the observability contract of ``docs/observability.md``: every public
:class:`repro.kv.interface.KeyValueStore` operation, when performed through
an instrumented wrapper, must record at least one metric.  Four failure
modes are caught:

1. **A silent gap** -- an operation driven through
   :class:`~repro.udsm.monitoring.MonitoredStore` (with a
   :class:`~repro.udsm.monitoring.PerformanceMonitor` bound to a
   :class:`~repro.obs.metrics.MetricsRegistry`) leaves the registry
   untouched.
2. **An unreviewed addition** -- a new public method appears on the
   interface without either a driver in the contract table below or an
   explicit exemption.  Adding an operation then forces a decision about
   its instrumentation instead of silently skipping it.
3. **A changed shape** -- an operation driven through any interceptor
   (monitor, retry, circuit breaker, fault injection, partition) reaches a
   counting inner store under another name or more than once, e.g. a
   ``put_many`` exploded into per-key ``put`` calls.  The op list comes
   from the interface, so an operation added to it cannot be forwarded by
   some decorators and exploded by others.
4. **A watching-cost regression** -- one cache-hit ``get`` on the enhanced
   client is counted with :func:`sys.setprofile`, observed and unobserved,
   against :data:`HIT_CALL_BUDGET`: Python calls, C calls, and lock
   acquisitions (metric writes take none; only the in-process cache's own
   lock remains).  Counted, not timed: the counts repeat exactly, so the
   budget holds in CI with no wall clock.
5. **A cold GET doing more than one record's work** -- exact counts of
   :data:`COLD_GET_COUNTS`: one :func:`~repro.caching.bloom.key_hash` per
   LSM lookup however many tables it probes, one ``pread`` per table
   whose Bloom filter passes (none for a memtable hit), no block decoded
   by a point read, and one socket write answering a burst of pipelined
   ``GET`` requests on either serving engine.
6. **A durable acknowledgement waiting for someone else's sync** -- the
   exact count of :data:`COMMIT_COUNTS`: with one follower queued behind
   a commit leader, the leader's ``submit`` returns after its own batch's
   commit; the follower leads its own batch (LevelDB's write-queue rule).

The check actually *runs* every operation against a real store, so it
cannot drift from the implementation the way a static list would.

Exit status 0 when every operation is covered and within budget; 1 otherwise.
"""

from __future__ import annotations

import os
import socket
import sys
import tempfile
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.caching import InProcessCache  # noqa: E402
from repro.caching.bloom import key_hash  # noqa: E402
from repro.core import EnhancedDataStoreClient  # noqa: E402
from repro.kv import (  # noqa: E402
    CircuitBreakerStore,
    FlakyStore,
    InMemoryStore,
    PartitionedStore,
    RetryingStore,
)
from repro.kv.interface import KeyValueStore  # noqa: E402
from repro.lsm import sstable  # noqa: E402
from repro.lsm.store import LSMStore  # noqa: E402
from repro.lsm.wal import CommitPipeline  # noqa: E402
from repro.net import protocol  # noqa: E402
from repro.net.aio import AsyncStoreServer  # noqa: E402
from repro.net.server import StoreServer  # noqa: E402
from repro.obs import Observability  # noqa: E402
from repro.obs.metrics import MetricsRegistry  # noqa: E402
from repro.udsm.monitoring import MonitoredStore, PerformanceMonitor  # noqa: E402

#: Public interface operations with no data-plane latency to record:
#: resource lifecycle and raw-handle escape hatches.
EXEMPT = {
    "close": "resource lifecycle, not a data operation",
    "native": "raw backend handle escape hatch; nothing to time",
}

#: op name -> callable(store) driving that op on a pre-seeded store
#: (keys ``seed-1``/``seed-2`` exist; ``seed-1`` holds ``b"value-1"``).
DRIVERS = {
    "get": lambda s: s.get("seed-1"),
    "put": lambda s: s.put("new-key", b"new-value"),
    "delete": lambda s: s.delete("seed-1"),
    "keys": lambda s: list(s.keys()),
    "keys_with_prefix": lambda s: list(s.keys_with_prefix("seed-")),
    "contains": lambda s: s.contains("seed-1"),
    "size": lambda s: s.size(),
    "clear": lambda s: s.clear(),
    "get_with_version": lambda s: s.get_with_version("seed-1"),
    "get_if_modified": lambda s: s.get_if_modified("seed-1", "stale-token"),
    "put_with_version": lambda s: s.put_with_version("seed-1", b"value-2"),
    "check_version": lambda s: s.check_version("seed-1", "stale-token"),
    "get_or_default": lambda s: s.get_or_default("absent", None),
    "get_many": lambda s: s.get_many(["seed-1", "seed-2"]),
    "put_many": lambda s: s.put_many({"many-1": b"a", "many-2": b"b"}),
    "delete_many": lambda s: s.delete_many(["seed-1", "seed-2"]),
}

#: Derived operations reach the inner store as the primitive they are
#: defined by; every other operation must arrive under its own name.
REACHES_INNER_AS = {"check_version": "get_if_modified", "get_or_default": "get"}

#: name -> factory(inner, registry): every interceptor, configured to let
#: the operation through.
INTERCEPTORS = {
    "MonitoredStore": lambda inner, registry: MonitoredStore(
        inner, PerformanceMonitor(registry=registry), name="checked"
    ),
    "RetryingStore": lambda inner, registry: RetryingStore(inner),
    "CircuitBreakerStore": lambda inner, registry: CircuitBreakerStore(inner),
    "FlakyStore": lambda inner, registry: FlakyStore(inner, failure_rate=0.0),
    "PartitionedStore": lambda inner, registry: PartitionedStore(inner),
}

#: EnhancedDataStoreClient public ops with a ``client.<op>.seconds`` stage.
CLIENT_DRIVERS = {
    "get": lambda c: c.get("seed-1"),
    "get_many": lambda c: c.get_many(["seed-1", "seed-2"]),
    "put": lambda c: c.put("new-key", {"v": 1}),
    "delete": lambda c: c.delete("seed-1"),
    "invalidate": lambda c: c.invalidate("seed-1"),
}


#: Per cache-hit ``get``: (Python-level calls, C-level calls, lock
#: acquisitions) allowed.  Measured 28/26/1 observed and 21/6/1 unobserved
#: with per-thread metric cells (28/25/8 and 21/6/3 when every metric write
#: took a lock; docs/observability.md).  The one lock left is the
#: in-process cache's own.
HIT_CALL_BUDGET = {"observed": (29, 27, 1), "unobserved": (21, 7, 1)}
HIT_CALL_GETS = 100
LOCK_TYPES = (type(threading.Lock()), type(threading.RLock()))


#: What one cold GET may cost, as exact counts (sys.setprofile and a
#: socket-write wrapper, no clock).  The read path's shape is the e2e
#: spine's: a key that only the oldest of seven tables holds probes every
#: table's Bloom filter, and so does an absent key.  Only the oldest
#: table's filter passes for that key (and none for the absent one), so
#: each read is one ``pread`` at most -- there is no block cache in front
#: of the file, and the OS page cache is below the syscall.
COLD_GET_COUNTS = {
    "key_hash calls, key in the oldest of 7 tables": 1,
    "key_hash calls, absent key over 7 tables": 1,
    "preads, key in the oldest of 7 tables": 1,
    "preads, absent key over 7 tables": 0,
    "preads, memtable hit": 0,
    "block record iterator runs, point read": 0,
    "socket writes answering 16 pipelined GETs, threaded engine": 1,
    "socket writes answering 16 pipelined GETs, async engine": 1,
}
COLD_GET_TABLES = 7
BURST_GETS = 16

#: What a durable acknowledgement waits for, as an exact count (events and
#: the pipeline's enqueue hook, no clock).  A commit leader hands the queue
#: to the oldest waiter after one batch, so its ``submit`` waits for its
#: own commit only; a leader that drains the queue itself reads 2.
COMMIT_COUNTS = {"commits a leader's submit waits for, one follower queued": 1}


def public_interface_ops() -> set[str]:
    return {
        name
        for name in dir(KeyValueStore)
        if not name.startswith("_") and callable(getattr(KeyValueStore, name))
    }


def registry_observations(registry: MetricsRegistry) -> int:
    """Total recorded activity: histogram samples + counter increments."""
    snapshot = registry.snapshot()
    return sum(data["count"] for data in snapshot["histograms"].values()) + sum(
        int(value) for value in snapshot["counters"].values()
    )


class CountingStore(InMemoryStore):
    """Records each operation that reaches it from outside, by name (not
    the calls its own default implementations then make on itself)."""

    def __init__(self) -> None:
        super().__init__()
        self.calls: list[str] = []
        self._depth = 0


def _counted(op: str):
    def operation(self, *args):
        if self._depth == 0:
            self.calls.append(op)
        self._depth += 1
        try:
            result = getattr(InMemoryStore, op)(self, *args)
            # finish a lazy key scan while its nested calls still count as nested
            return list(result) if op.startswith("keys") else result
        finally:
            self._depth -= 1

    return operation


for _op in public_interface_ops() - set(EXEMPT):
    setattr(CountingStore, _op, _counted(_op))


def check_interceptors() -> list[str]:
    """Drive every public op through every interceptor; return failures."""
    failures: list[str] = []
    ops = public_interface_ops()
    uncovered = ops - set(DRIVERS) - set(EXEMPT)
    if uncovered:
        failures.append(
            "public KeyValueStore operations with no driver and no exemption: "
            + ", ".join(sorted(uncovered))
            + " (add a DRIVERS entry or an EXEMPT reason in "
            "scripts/check_instrumentation.py)"
        )
    stale = (set(DRIVERS) | set(EXEMPT)) - ops
    if stale:
        failures.append(
            "contract entries for operations no longer on the interface: "
            + ", ".join(sorted(stale))
        )
    for op in sorted(set(DRIVERS) & ops):
        for name, build in INTERCEPTORS.items():
            registry = MetricsRegistry()
            inner = CountingStore()
            inner.put_many({"seed-1": b"value-1", "seed-2": b"value-2"})
            inner.calls.clear()
            try:
                DRIVERS[op](build(inner, registry))
            except Exception as exc:  # noqa: BLE001 - report, don't crash the check
                failures.append(f"{name}.{op} raised {type(exc).__name__}: {exc}")
                continue
            expected = [REACHES_INNER_AS.get(op, op)]
            if inner.calls != expected:
                failures.append(
                    f"{name}.{op} reached the inner store as {inner.calls}, "
                    f"not as {expected}"
                )
            if name == "MonitoredStore" and not registry_observations(registry):
                failures.append(
                    f"MonitoredStore.{op} recorded no metric (registry unchanged)"
                )
    return failures


def check_enhanced_client() -> list[str]:
    """Drive the enhanced client's instrumented ops; return failures."""
    failures: list[str] = []
    for op in sorted(CLIENT_DRIVERS):
        obs = Observability()
        client = EnhancedDataStoreClient(
            InMemoryStore(), cache=InProcessCache(), obs=obs
        )
        client.put("seed-1", {"v": 1})
        client.put("seed-2", {"v": 2})
        metric = f"client.{op}.seconds"
        before = obs.registry.snapshot()["histograms"].get(metric, {}).get("count", 0)
        try:
            CLIENT_DRIVERS[op](client)
        except Exception as exc:  # noqa: BLE001
            failures.append(
                f"EnhancedDataStoreClient.{op} raised {type(exc).__name__}: {exc}"
            )
            continue
        after = obs.registry.snapshot()["histograms"].get(metric, {}).get("count", 0)
        if after <= before:
            failures.append(
                f"EnhancedDataStoreClient.{op} did not record {metric}"
            )
        client.close()
    return failures


def hit_call_counts(obs: Observability | None) -> tuple[float, float, float]:
    """(Python calls, C calls, lock acquisitions) per warmed cache-hit get,
    by sys.setprofile.

    A lock acquisition is an ``acquire`` on a lock or RLock, or a ``with``
    block over one.  Depending on the interpreter a ``with`` block reports
    its ``__enter__``, its ``__exit__`` or both as C calls, so blocks are
    counted as the larger of the two tallies.
    """
    client = EnhancedDataStoreClient(InMemoryStore(), obs=obs)
    client.put("k", b"x" * 64)
    get = client.get
    for _ in range(HIT_CALL_GETS):  # fill the trace ring, resolve handles
        get("k")
    counts = {"call": 0, "c_call": 0}
    lock_calls = {"acquire": 0, "__enter__": 0, "__exit__": 0}

    def profile(frame, event, arg) -> None:
        if event in counts:
            counts[event] += 1
            if event == "c_call" and isinstance(getattr(arg, "__self__", None), LOCK_TYPES):
                name = arg.__name__
                if name in lock_calls:
                    lock_calls[name] += 1

    sys.setprofile(profile)
    try:
        for _ in range(HIT_CALL_GETS):
            get("k")
    finally:
        sys.setprofile(None)  # itself the one c_call subtracted below
    locks = lock_calls["acquire"] + max(lock_calls["__enter__"], lock_calls["__exit__"])
    return (
        counts["call"] / HIT_CALL_GETS,
        (counts["c_call"] - 1) / HIT_CALL_GETS,
        locks / HIT_CALL_GETS,
    )


def check_hit_call_budget() -> list[str]:
    """Count one cache hit's calls and locks, observed and not; return failures."""
    failures: list[str] = []
    for mode, obs in (("observed", Observability()), ("unobserved", None)):
        measured = hit_call_counts(obs)
        budget = HIT_CALL_BUDGET[mode]
        python_calls, c_calls, locks = measured
        print(
            f"cache-hit get, {mode}: {python_calls:g} Python calls "
            f"(budget {budget[0]}), {c_calls:g} C calls (budget {budget[1]}), "
            f"{locks:g} lock acquisitions (budget {budget[2]})"
        )
        if any(count > limit for count, limit in zip(measured, budget)):
            failures.append(
                f"{mode} cache-hit get costs {python_calls:g} Python / "
                f"{c_calls:g} C calls / {locks:g} locks, over the budget of "
                + " / ".join(str(limit) for limit in budget)
            )
    return failures


def calls_to(function, action) -> int:
    """Entries into *function* while *action* runs in this thread: calls
    of a Python function (a generator counts every resumption) or of a
    builtin such as ``os.pread``."""
    code, count = getattr(function, "__code__", None), 0

    def profile(frame, event, arg) -> None:
        nonlocal count
        if (event == "call" and frame.f_code is code) or (
            event == "c_call" and arg is function
        ):
            count += 1

    sys.setprofile(profile)
    try:
        action()
    finally:
        sys.setprofile(None)
    return count


def burst_writes(server_class) -> int:
    """Server-side socket writes answering one segment of pipelined GETs."""
    server = server_class(InMemoryStore())
    address = server.start()
    writes = 0
    real = {name: getattr(socket.socket, name) for name in ("send", "sendall")}

    def counted(name: str):
        def write(sock, *args):
            nonlocal writes
            if sock.getsockname() == address:
                writes += 1
            return real[name](sock, *args)

        return write

    client = socket.create_connection(address, timeout=5)
    reader = protocol.FrameReader(client.makefile("rb"))
    try:
        client.sendall(protocol.encode_command([b"SET", b"k", b"v"]))
        reader.read_frame()
        for name in real:
            setattr(socket.socket, name, counted(name))
        try:
            client.sendall(protocol.encode_command([b"GET", b"k"]) * BURST_GETS)
            replies = [reader.read_frame() for _ in range(BURST_GETS)]
        finally:
            for name, method in real.items():
                setattr(socket.socket, name, method)
        assert replies == [b"v"] * BURST_GETS, replies
    finally:
        client.close()
        server.stop()
    return writes


def cold_get_counts(root: Path) -> dict[str, int]:
    """Measure every entry of :data:`COLD_GET_COUNTS` over a store in *root*."""
    store = LSMStore(root, auto_compact=False)
    try:
        for table in range(COLD_GET_TABLES):
            store.put_many({f"{i:03d}-t{table}": b"v" * 64 for i in range(64)})
            store.flush()
        assert store.stats()["sstables"] == COLD_GET_TABLES

        def read(key: str):
            return lambda: store.get_or_default(key, None)

        # Every table spans the same key range, so only its Bloom filter
        # can spare a table the read; the memtable key shadows a table's.
        store.put("020-t3", b"fresh")
        counts = {
            "key_hash calls, key in the oldest of 7 tables": calls_to(key_hash, read("017-t0")),
            "key_hash calls, absent key over 7 tables": calls_to(key_hash, read("017-absent")),
            "preads, key in the oldest of 7 tables": calls_to(os.pread, read("017-t0")),
            "preads, absent key over 7 tables": calls_to(os.pread, read("017-absent")),
            "preads, memtable hit": calls_to(os.pread, read("020-t3")),
            "block record iterator runs, point read": calls_to(sstable._records, read("040-t0")),
        }
        for engine, server_class in (("threaded", StoreServer), ("async", AsyncStoreServer)):
            counts[f"socket writes answering 16 pipelined GETs, {engine} engine"] = burst_writes(
                server_class
            )
        return counts
    finally:
        store.close()


def check_cold_get_counts() -> list[str]:
    """Count a cold GET's hashes, block decodes and writes; return failures."""
    with tempfile.TemporaryDirectory() as root:
        measured = cold_get_counts(Path(root) / "db")
    failures = []
    for what, expected in COLD_GET_COUNTS.items():
        print(f"cold get: {what}: {measured[what]} (exactly {expected})")
        if measured[what] != expected:
            failures.append(f"cold get: {what} is {measured[what]}, not {expected}")
    return failures


def leader_commit_waits() -> int:
    """Commits done when a leader's ``submit`` returns while one follower
    is queued behind its batch.

    The leader's commit holds until the follower is enqueued; a commit run
    in any other thread holds until the leader has returned, so the count
    does not depend on which thread the scheduler runs first.
    """
    in_commit, follower_queued, leader_returned = (threading.Event() for _ in range(3))
    commits: list[list[bytes]] = []

    def commit(frames: list[bytes]) -> None:
        if frames == [b"leader"]:
            in_commit.set()
            follower_queued.wait(timeout=5.0)
        elif threading.current_thread() is not leader:
            leader_returned.wait(timeout=5.0)
        commits.append(frames)

    pipeline = CommitPipeline(commit)
    waited: list[int] = []

    def lead() -> None:
        pipeline.submit(b"leader")
        waited.append(len(commits))
        leader_returned.set()

    leader = threading.Thread(target=lead)
    leader.start()
    try:
        assert in_commit.wait(timeout=5.0), "the leader never committed"
        pipeline._enqueue_hook = follower_queued.set
        follower = threading.Thread(target=pipeline.submit, args=(b"follower",))
        follower.start()
        follower.join(timeout=10.0)
    finally:
        follower_queued.set()
        leader.join(timeout=10.0)
    pipeline.close()
    assert commits == [[b"leader"], [b"follower"]], commits
    return waited[0]


def check_commit_counts() -> list[str]:
    """Count what a leader's acknowledgement waits for; return failures."""
    ((what, expected),) = COMMIT_COUNTS.items()
    measured = leader_commit_waits()
    print(f"group commit: {what}: {measured} (exactly {expected})")
    return [] if measured == expected else [f"group commit: {what} is {measured}, not {expected}"]


def main() -> int:
    failures = (
        check_interceptors()
        + check_enhanced_client()
        + check_hit_call_budget()
        + check_cold_get_counts()
        + check_commit_counts()
    )
    covered = sorted(set(DRIVERS) & public_interface_ops())
    print(
        f"instrumentation check: {len(covered)} interface ops driven through "
        f"{len(INTERCEPTORS)} interceptors ({', '.join(INTERCEPTORS)}), "
        f"each reaching the inner store once as itself; {len(EXEMPT)} exempt "
        f"({', '.join(sorted(EXEMPT))}), "
        f"{len(CLIENT_DRIVERS)} enhanced-client ops"
    )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("instrumentation check: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
