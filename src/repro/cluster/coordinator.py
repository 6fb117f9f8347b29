"""Cluster coordinator: boots shard servers and drives membership changes.

A :class:`ClusterCoordinator` owns a set of in-process shard servers (one
:class:`~repro.net.server.StoreServer` or
:class:`~repro.net.aio.AsyncStoreServer` per member, each hosting a caller-
supplied :class:`~repro.kv.interface.KeyValueStore`), the authoritative
:class:`~repro.cluster.topology.ClusterTopology`, and the live-rebalance
choreography (:mod:`repro.cluster.rebalancer`).

``add_shard``/``remove_shard`` bump the topology epoch, move only the
affected key ranges while traffic keeps flowing, and install the new map
on every server -- smart clients then converge via piggybacked epochs and
``-MOVED`` redirects without reconnecting (``docs/cluster.md``).

This is deliberately a *single-process* control plane: the point of this
subsystem is client-side enhancement (the paper's thesis), so the
coordinator stays simple -- one process owns membership, the data plane
(servers + clients) does all the distributed work over real sockets.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from ..errors import ConfigurationError
from ..net.server import build_server
from ..obs import Observability, resolve_obs
from .rebalancer import RebalanceReport, rebalance
from .topology import ClusterTopology, ShardInfo

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..kv.interface import KeyValueStore
    from .client import ClusterStoreClient

__all__ = ["ClusterCoordinator"]

_ENGINES = ("threaded", "async")


class ClusterCoordinator:
    """Owns shard servers, the topology, and membership transitions.

    :param engine: serving engine per shard, ``"threaded"`` or ``"async"``
        (same wire protocol either way; see ``docs/serving.md``).
    :param replicas: virtual nodes per shard on the hash ring.
    :param batch_size: keys per batch while rebalancing
        (:func:`repro.tools.migration.copy_store`).
    :param obs: observability bundle for ``cluster.*`` metrics and the
        ``topology_changed`` / ``rebalance`` events.
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        engine: str = "threaded",
        replicas: int = 64,
        batch_size: int = 100,
        obs: Observability | None = None,
    ) -> None:
        if engine not in _ENGINES:
            raise ConfigurationError(f"unknown cluster engine {engine!r}; use one of {_ENGINES}")
        self._host = host
        self._engine = engine
        self._replicas = replicas
        self._batch_size = batch_size
        self._obs = resolve_obs(obs)
        self._servers: dict[str, object] = {}
        self._stores: dict[str, "KeyValueStore"] = {}
        self._topology: ClusterTopology | None = None
        self._lock = threading.RLock()
        self._closed = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def topology(self) -> ClusterTopology | None:
        return self._topology

    @property
    def epoch(self) -> int:
        topology = self._topology
        return 0 if topology is None else topology.epoch

    @property
    def shards(self) -> tuple[str, ...]:
        topology = self._topology
        return () if topology is None else topology.members

    @property
    def seeds(self) -> list[tuple[str, int]]:
        """Every member's address -- hand these to a client."""
        topology = self._topology
        if topology is None:
            return []
        return [topology.address(name) for name in topology.members]

    def store(self, name: str) -> "KeyValueStore":
        """The backing store of shard *name* (tests and verification)."""
        with self._lock:
            try:
                return self._stores[name]
            except KeyError:
                raise ConfigurationError(f"no shard named {name!r}") from None

    def status(self) -> dict:
        """Topology plus per-shard key counts (the ``repro cluster`` CLI)."""
        with self._lock:
            topology = self._topology
            shards = []
            if topology is not None:
                for name in topology.members:
                    host, port = topology.address(name)
                    store = self._stores.get(name)
                    shards.append(
                        {
                            "name": name,
                            "host": host,
                            "port": port,
                            "keys": 0 if store is None else store.size(),
                        }
                    )
            return {
                "epoch": 0 if topology is None else topology.epoch,
                "replicas": self._replicas,
                "engine": self._engine,
                "shards": shards,
                "total_keys": sum(entry["keys"] for entry in shards),
            }

    def client(self, **kwargs) -> "ClusterStoreClient":
        """A :class:`~repro.cluster.client.ClusterStoreClient` for this cluster."""
        from .client import ClusterStoreClient

        return ClusterStoreClient(self.seeds, **kwargs)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def add_shard(self, name: str, store: "KeyValueStore") -> RebalanceReport | None:
        """Scale out: boot a server for *store*, bump the epoch, pull only
        the moved key ranges over -- all while existing shards keep serving.

        Returns the rebalance report, or ``None`` for the founding shard.
        """
        with self._lock:
            if self._closed:
                raise ConfigurationError("coordinator is stopped")
            if name in self._servers:
                raise ConfigurationError(f"shard {name!r} already exists")
            server = build_server(self._engine, store, self._host, 0)
            host, port = server.start()
            self._servers[name] = server
            self._stores[name] = store
            if self._obs.enabled:
                self._obs.inc("cluster.shards_added")
            old = self._topology
            if old is None:
                founding = ClusterTopology(
                    [ShardInfo(name, host, port)], epoch=1, replicas=self._replicas
                )
                self._install(founding, added=name)
                return None
            new = old.with_shard(name, host, port)
            report = rebalance(
                self._stores,
                old,
                new,
                install=lambda: self._install(new, added=name),
                batch_size=self._batch_size,
            )
            self._emit_rebalance(report)
            return report

    def remove_shard(self, name: str) -> RebalanceReport:
        """Scale in: push *name*'s keys to the survivors, bump the epoch,
        then stop its server and clear its (caller-owned) store."""
        with self._lock:
            if self._closed:
                raise ConfigurationError("coordinator is stopped")
            old = self._topology
            if old is None or name not in old:
                raise ConfigurationError(f"no shard named {name!r} in the cluster")
            new = old.without_shard(name)  # refuses to empty the cluster
            report = rebalance(
                self._stores,
                old,
                new,
                install=lambda: self._install(new, removed=name),
                batch_size=self._batch_size,
            )
            # The leaving server kept serving through the catch-up pass
            # (redirecting stragglers); now it can go.
            server = self._servers.pop(name)
            store = self._stores.pop(name)
            server.stop()
            store.clear()  # its keys live on the survivors now
            if self._obs.enabled:
                self._obs.inc("cluster.shards_removed")
            self._emit_rebalance(report)
            return report

    def _install(self, topology: ClusterTopology, *, added: str | None = None, removed: str | None = None) -> None:
        """Flip every server (added shard first -- it must know the map
        before redirected traffic arrives) and the coordinator's own view."""
        order = sorted(self._servers, key=lambda name: 0 if name == added else 1)
        for name in order:
            self._servers[name].install_topology(topology, name)
        self._topology = topology
        if self._obs.enabled:
            self._obs.gauge("cluster.epoch").set(topology.epoch)
            self._obs.gauge("cluster.shards").set(len(topology.members))
            self._obs.emit(
                "topology_changed",
                epoch=topology.epoch,
                members=list(topology.members),
                added=added,
                removed=removed,
            )

    def _emit_rebalance(self, report: RebalanceReport) -> None:
        if not self._obs.enabled:
            return
        self._obs.inc("cluster.rebalance.moved_keys", report.total_copied)
        self._obs.inc("cluster.rebalance.purged_keys", report.purged)
        self._obs.histogram("cluster.rebalance.seconds").observe(report.elapsed_seconds)
        self._obs.emit(
            "rebalance",
            epoch_from=report.epoch_from,
            epoch_to=report.epoch_to,
            moved=report.moved,
            catch_up=report.catch_up,
            purged=report.purged,
            elapsed_seconds=round(report.elapsed_seconds, 6),
        )

    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Stop every shard server (stores stay with their owners).  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            servers = list(self._servers.values())
            self._servers.clear()
        for server in servers:
            server.stop()

    def __enter__(self) -> "ClusterCoordinator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
