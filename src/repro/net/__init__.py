"""Networking substrate.

Two things live here:

* a parameterised WAN latency model (:mod:`repro.net.latency`) used by the
  simulated cloud stores to reproduce the client-observable behaviour of the
  paper's geographically distant commercial cloud stores, and
* a from-scratch remote-process cache server and client
  (:mod:`repro.net.server`, :mod:`repro.net.client`) speaking a small
  RESP-like protocol over real TCP sockets -- the stand-in for the Redis
  instance used in the paper's evaluation -- available behind two serving
  engines: thread-per-connection (:mod:`repro.net.server`) and a
  single-threaded event-loop reactor (:mod:`repro.net.aio`) that
  multiplexes thousands of pipelined connections (see ``docs/serving.md``).
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .latency import Clock, LatencyModel, RealClock, VirtualClock
    from .client import CacheClient, ClusterAwareClient, MovedRedirect, parse_moved
    from .server import CacheServer, ServerHandle, StoreServer, THREADED_MAX_CLIENTS
    from .aio import (
        ASYNC_MAX_CLIENTS,
        AsyncCacheServer,
        AsyncServerEngine,
        AsyncStoreServer,
        probe_fd_budget,
    )

#: name -> defining module; resolved on first access (see ``repro._lazy``).
_EXPORTS = {
    "Clock": ".latency",
    "RealClock": ".latency",
    "VirtualClock": ".latency",
    "LatencyModel": ".latency",
    "CacheClient": ".client",
    "ClusterAwareClient": ".client",
    "MovedRedirect": ".client",
    "parse_moved": ".client",
    "CacheServer": ".server",
    "StoreServer": ".server",
    "ServerHandle": ".server",
    "AsyncServerEngine": ".aio",
    "AsyncCacheServer": ".aio",
    "AsyncStoreServer": ".aio",
    "THREADED_MAX_CLIENTS": ".server",
    "ASYNC_MAX_CLIENTS": ".aio",
    "probe_fd_budget": ".aio",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
