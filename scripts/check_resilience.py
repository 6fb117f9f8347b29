#!/usr/bin/env python
"""Fault-tolerance contract check (``make check-resilience``).

Guards the resilience contract of ``docs/resilience.md``: the
fault-tolerance plane must (a) emit its documented metric vocabulary --
``kv.circuit.*``, ``kv.hedge.*``, ``kv.deadline.expired``,
``cache.stale_served`` -- and (b) surface every failure mode as a typed
:class:`repro.errors.DataStoreError` subclass, never a bare exception.

Like ``check_instrumentation.py``, the check *drives* the real wrappers
end to end (breaker lifecycle, deadline expiry -- in a retry ladder, and
on the wire before a pipeline or a cluster connection writes a byte --
hedged read, a client's stale serve, UDSM health routing) with injected
clocks -- the stale serve moves its cached entry's expiry back instead --
so it cannot drift from the implementation and completes without any real
sleeping.

Exit status 0 when every scenario holds; 1 otherwise.
"""

from __future__ import annotations

import socket
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import EnhancedDataStoreClient  # noqa: E402
from repro.errors import (  # noqa: E402
    CircuitOpenError,
    DataStoreError,
    DeadlineExceededError,
    StoreConnectionError,
)
from repro.kv import (  # noqa: E402
    CircuitBreakerStore,
    CircuitState,
    FlakyStore,
    InMemoryStore,
    ReplicatedStore,
    RetryingStore,
    deadline_scope,
)
from repro.net.client import CacheClient, ClusterAwareClient  # noqa: E402
from repro.net.latency import VirtualClock  # noqa: E402
from repro.obs import EventLog, Observability  # noqa: E402
from repro.obs.metrics import MetricsRegistry  # noqa: E402
from repro.udsm.manager import UniversalDataStoreManager  # noqa: E402


def _obs() -> tuple[Observability, MetricsRegistry]:
    registry = MetricsRegistry()
    return Observability(registry=registry), registry


def _expect(errors: list[str], condition: bool, message: str) -> None:
    if not condition:
        errors.append(message)


def check_breaker_lifecycle() -> list[str]:
    """A failure burst must open, recover half-open, probe, and close --
    emitting the counters, the state gauge, and typed errors throughout."""
    errors: list[str] = []
    obs, registry = _obs()
    clock = VirtualClock()
    flaky = FlakyStore(InMemoryStore(), failure_rate=0.0)
    store = CircuitBreakerStore(
        flaky,
        name="contract",
        failure_threshold=2,
        recovery_timeout=30.0,
        clock=clock.time,
        obs=obs,
    )
    store.put("k", "v")

    flaky.fail_next(2)
    for _ in range(2):
        try:
            store.get("k")
        except StoreConnectionError:
            pass
        except Exception as exc:  # pragma: no cover - contract violation
            errors.append(f"breaker passed through untyped error {type(exc).__name__}")
    _expect(errors, store.breaker.state is CircuitState.OPEN, "burst did not open circuit")

    try:
        store.get("k")
        errors.append("open circuit did not shed the call")
    except CircuitOpenError as exc:
        _expect(errors, isinstance(exc, DataStoreError), "CircuitOpenError not a DataStoreError")
        _expect(errors, exc.retry_after is not None, "CircuitOpenError missing retry_after")

    clock.advance(30.0)
    _expect(errors, store.get("k") == "v", "recovery probe did not pass through")
    _expect(errors, store.breaker.state is CircuitState.CLOSED, "probe success did not close circuit")

    for metric, want in [
        ("kv.circuit.opened", 1),
        ("kv.circuit.half_open", 1),
        ("kv.circuit.closed", 1),
        ("kv.circuit.rejected", 1),
    ]:
        got = registry.counter(metric).value
        _expect(errors, got == want, f"{metric} == {got}, want {want}")
    gauge = registry.gauge("kv.circuit.contract.state").value
    _expect(errors, gauge == 0, f"kv.circuit.contract.state gauge == {gauge}, want 0 (closed)")
    return errors


def check_deadline_budget() -> list[str]:
    """An expired budget must stop a retry ladder with a typed, counted,
    never-retried error."""
    errors: list[str] = []
    obs, registry = _obs()
    clock = VirtualClock()
    flaky = FlakyStore(InMemoryStore(), failure_rate=1.0)
    store = RetryingStore(flaky, max_attempts=50, sleep=clock.advance, obs=obs)

    with deadline_scope(0.5, clock=clock.time):
        try:
            store.get("k")
            errors.append("deadline-bounded retry against a dead store returned")
        except DeadlineExceededError as exc:
            _expect(errors, isinstance(exc, DataStoreError), "DeadlineExceededError not a DataStoreError")
        except Exception as exc:
            errors.append(f"expected DeadlineExceededError, got {type(exc).__name__}")
    _expect(errors, store.retries < 49, "deadline did not cut the retry ladder short")
    expired = registry.counter("kv.deadline.expired").value
    _expect(errors, expired >= 1, f"kv.deadline.expired == {expired}, want >= 1")
    return errors


def _bytes_received(listener: socket.socket) -> bytes:
    """Everything clients sent to *listener* so far, without waiting."""
    listener.setblocking(False)
    received = b""
    while True:
        try:
            conn, _ = listener.accept()
        except BlockingIOError:
            return received
        with conn:
            conn.setblocking(False)
            try:
                received += conn.recv(65536)
            except BlockingIOError:
                pass


def check_wire_deadline() -> list[str]:
    """Under a spent budget, a pipeline and a cluster client's first
    connect must fail typed before a byte reaches the wire."""
    errors: list[str] = []
    clock = VirtualClock()
    listener = socket.create_server(("127.0.0.1", 0), backlog=8)
    host, port = listener.getsockname()[:2]
    cases = [
        ("pipeline", CacheClient, lambda client: client.pipeline().get(b"k").execute()),
        ("cluster connect", ClusterAwareClient, lambda client: client.ping()),
    ]
    try:
        for label, make, call in cases:
            client = make(host, port, operation_timeout=1.0)
            with deadline_scope(0.5, clock=clock.time):
                clock.advance(1.0)
                try:
                    call(client)
                    errors.append(f"{label} under a spent deadline returned")
                except DeadlineExceededError:
                    pass
                except Exception as exc:
                    errors.append(
                        f"{label}: expected DeadlineExceededError, got {type(exc).__name__}"
                    )
            client.close()
            sent = _bytes_received(listener)
            _expect(errors, sent == b"", f"{label} wrote {len(sent)} bytes under a spent deadline")
    finally:
        listener.close()
    return errors


def check_hedged_read() -> list[str]:
    """A failing primary must hedge to the replica and count the win."""
    errors: list[str] = []
    obs, registry = _obs()
    primary = FlakyStore(InMemoryStore(), failure_rate=1.0)
    replica = InMemoryStore()
    replica.put("k", "from-replica")
    group = ReplicatedStore(primary, [replica], hedge_delay=0.05, obs=obs)

    value = group.get("k")
    _expect(errors, value == "from-replica", f"hedged read returned {value!r}")
    for metric in ("kv.hedge.launched", "kv.hedge.wins"):
        got = registry.counter(metric).value
        _expect(errors, got == 1, f"{metric} == {got}, want 1")
    return errors


def check_serve_stale() -> list[str]:
    """An unreachable origin must be answered from the client's expired
    entry, flagged and counted, with revalidation catching it up afterwards.
    Expiry is set by moving the entry's ``expires_at`` back: no sleeping."""
    errors: list[str] = []
    registry = MetricsRegistry()
    events = EventLog()
    pending: list = []
    backend = InMemoryStore()
    flaky = FlakyStore(backend, failure_rate=0.0)
    client = EnhancedDataStoreClient(
        flaky,
        default_ttl=60.0,
        serve_stale=True,
        max_stale=300.0,
        stale_revalidator=pending.append,
        obs=Observability(registry=registry, events=events),
    )

    def expire(seconds_ago: float) -> float:
        """Move the cached entry's expiry *seconds_ago* into the past."""
        entry = client.dscl.cache_lookup("k").entry
        now = time.time()
        entry.expires_at = now - seconds_ago
        return now

    client.put("k", "v1")
    backend.put("k", "v2")  # origin moves on behind the cached entry

    start = expire(10.0)
    flaky.fail_next(1)
    value = client.get("k")
    elapsed = time.time() - start
    _expect(errors, value == "v1", "degraded read did not serve the expired entry")
    served = registry.counter("cache.stale_served").value
    _expect(errors, served == 1, f"cache.stale_served == {served}, want 1")
    ages = [record["age"] for record in events.tail(kind="stale_served")]
    # The event rounds the age to the microsecond; rounding is monotonic, so
    # the bound is exact: 10 s past expiry plus at most the read's duration.
    _expect(
        errors,
        len(ages) == 1 and 10.0 <= ages[0] <= round(10.0 + elapsed, 6),
        f"stale_served ages {ages}, want one in [10, {10.0 + elapsed}]",
    )

    _expect(errors, len(pending) == 1, "stale serve did not schedule one revalidation")
    if pending:
        pending.pop()()
        flaky.fail_next(1)  # a read that reached the origin would serve stale
        _expect(errors, client.get("k") == "v2", "revalidation did not refresh the entry")

    expire(400.0)  # beyond max_stale: the error must win now
    flaky.fail_next(1)
    try:
        client.get("k")
        errors.append("value older than max_stale was served")
    except StoreConnectionError:
        pass
    return errors


def check_health_routing() -> list[str]:
    """The UDSM must route around an open-circuited store and raise a
    typed error when no candidate is healthy."""
    errors: list[str] = []
    with UniversalDataStoreManager() as udsm:
        primary = FlakyStore(InMemoryStore(), failure_rate=0.0)
        udsm.register("cloud", primary)
        udsm.register("local", InMemoryStore(name="local"))
        udsm.protect("cloud", failure_threshold=1, recovery_timeout=3600.0)

        primary.fail_next(1)
        try:
            udsm.store("cloud").get("k")
        except StoreConnectionError:
            pass
        _expect(errors, udsm.healthy_stores() == ["local"], "open circuit still listed healthy")
        routed = udsm.route("cloud", "local")
        _expect(errors, routed is udsm.store("local"), "routing did not steer around the open circuit")
        try:
            udsm.route("cloud")
            errors.append("routing with every candidate unhealthy did not raise")
        except DataStoreError:
            pass
    return errors


CHECKS = [
    ("breaker lifecycle", check_breaker_lifecycle),
    ("deadline budget", check_deadline_budget),
    ("deadline on the wire", check_wire_deadline),
    ("hedged read", check_hedged_read),
    ("serve-stale", check_serve_stale),
    ("health routing", check_health_routing),
]


def main() -> int:
    failed = False
    for label, check in CHECKS:
        problems = check()
        if problems:
            failed = True
            print(f"FAIL  {label}")
            for problem in problems:
                print(f"      - {problem}")
        else:
            print(f"ok    {label}")
    if failed:
        print("\nresilience contract violated -- see docs/resilience.md")
        return 1
    print("\nresilience contract holds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
