#!/usr/bin/env python
"""Serving-plane smoke gate (``make check-serving``).

Guards the promises of ``docs/serving.md`` with real sockets:

* the **async engine boots and serves**: an in-process
  :class:`repro.net.aio.AsyncCacheServer` answers an unmodified sync
  :class:`repro.net.client.CacheClient`;
* a **pipelined load burst** (open-loop generator schedule, multiple
  client connections) completes without errors and **moves the STATS
  counters** (commands served, pipelined requests observed);
* the async engine **sustains at least 2x the threaded engine's
  concurrent-connection bound**: with the threaded engine capped at its
  default ``THREADED_MAX_CLIENTS``, the async engine holds
  ``2 x THREADED_MAX_CLIENTS`` simultaneously live connections, each
  verified with a PING round-trip;
* teardown is leak-free: stop is idempotent and the port is released.

Exit status 0 when every check holds; 1 otherwise.
"""

from __future__ import annotations

import socket
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.kv import RemoteKeyValueStore  # noqa: E402
from repro.net import (  # noqa: E402
    THREADED_MAX_CLIENTS,
    AsyncCacheServer,
    CacheClient,
)
from repro.net import protocol  # noqa: E402
from repro.udsm.loadgen import (  # noqa: E402
    LoadGenerator,
    LoadSpec,
    RVConfig,
)

CONNECTION_TARGET = 2 * THREADED_MAX_CLIENTS


def _expect(errors: list[str], condition: bool, message: str) -> None:
    if not condition:
        errors.append(message)
        print(f"  FAIL {message}")
    else:
        print(f"  ok   {message}")


def check_boot_and_stats(errors: list[str]) -> None:
    print("[1/3] async engine boots; pipelined burst moves STATS")
    server = AsyncCacheServer()
    host, port = server.start()
    try:
        client = CacheClient(host, port)
        _expect(errors, client.ping(), "sync CacheClient PINGs the async engine")

        # Raw pipelining: many requests in one write, ordered replies.
        pipe = client.pipeline()
        for i in range(64):
            pipe.set(f"gate{i}".encode(), str(i).encode())
        for i in range(64):
            pipe.get(f"gate{i}".encode())
        replies = pipe.execute()
        _expect(
            errors,
            replies[64:] == [str(i).encode() for i in range(64)],
            "128-deep pipeline answers in order",
        )

        # Open-loop burst over several connections.
        spec = LoadSpec(
            active_users=RVConfig(mean=400.0, distribution="constant"),
            key_space=64,
            value_size=128,
            key_prefix="gateload",
        )
        generator = LoadGenerator(spec, seed=5)
        targets = [RemoteKeyValueStore(host, port, name=f"w{i}") for i in range(4)]
        try:
            result = generator.run(targets=targets, duration=0.5)
        finally:
            for target in targets:
                target.close()
        _expect(errors, result.offered > 50, f"burst offered {result.offered} requests")
        _expect(
            errors,
            result.completed == result.offered and result.errors == 0,
            f"burst completed {result.completed}/{result.offered}, "
            f"{result.errors} errors",
        )

        stats = client.stats()
        _expect(errors, stats["server.engine"] == "async", "STATS reports engine=async")
        served = int(stats["cmd.set.calls"]) + int(stats["cmd.get.calls"])
        _expect(errors, served >= result.offered, f"STATS counted {served} gets+sets")
        snapshot = server.obs.registry.snapshot()
        _expect(
            errors,
            snapshot["counters"].get("net.aio.pipelined", 0) >= 64,
            "net.aio.pipelined counter moved",
        )
        client.close()
    finally:
        server.stop()


def check_connection_scaling(errors: list[str]) -> None:
    print(f"[2/3] async sustains {CONNECTION_TARGET} live connections "
          f"(2x threaded bound of {THREADED_MAX_CLIENTS})")
    server = AsyncCacheServer()
    host, port = server.start()
    connections: list[socket.socket] = []
    try:
        ping = protocol.encode_command(["PING"])
        for _ in range(CONNECTION_TARGET):
            sock = socket.create_connection((host, port), timeout=10)
            connections.append(sock)
        live = 0
        for sock in connections:
            sock.sendall(ping)
            if sock.recv(64) == b"+PONG\r\n":
                live += 1
        _expect(
            errors,
            live == CONNECTION_TARGET,
            f"{live}/{CONNECTION_TARGET} simultaneous connections answered PING",
        )
        stats_client = CacheClient(host, port)
        reported = int(stats_client.stats()["server.connections"])
        _expect(
            errors,
            reported >= CONNECTION_TARGET,
            f"STATS server.connections reports {reported}",
        )
        stats_client.close()
    finally:
        for sock in connections:
            sock.close()
        server.stop()


def check_teardown(errors: list[str]) -> None:
    print("[3/3] stop is idempotent and releases the port")
    server = AsyncCacheServer()
    host, port = server.start()
    server.stop()
    server.stop()  # must be a no-op, not an error
    try:
        socket.create_connection((host, port), timeout=0.5).close()
        refused = False
    except OSError:
        refused = True
    _expect(errors, refused, "port refuses connections after stop")
    rebound = socket.socket()
    try:
        rebound.bind((host, port))
        _expect(errors, True, "port is immediately rebindable")
    except OSError:
        _expect(errors, False, "port is immediately rebindable")
    finally:
        rebound.close()


def main() -> int:
    errors: list[str] = []
    check_boot_and_stats(errors)
    check_connection_scaling(errors)
    check_teardown(errors)
    if errors:
        print(f"\ncheck_serving: {len(errors)} check(s) FAILED")
        return 1
    print("\ncheck_serving: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
